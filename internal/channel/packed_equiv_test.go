package channel

import (
	"math/rand"
	"testing"

	"rfidest/internal/tags"
)

// These tests pin the engines to the retained reference paths
// (reference_test.go): the []bool frame, the per-slot counts the engines
// scattered into before they sampled straight into their frame buffers,
// and the per-tag decision TagEngine ran before it prepared each frame's
// hashes once. For randomized frame geometries the engines must produce
// bit-identical frames and slot states, identical transmission metering,
// and identical aggregate queries.

// randomReq draws a frame geometry from the full parameter space the
// engines accept: any width, k ∈ [1,4], p ∈ (0,1], occasional observed
// prefixes and geometric slot selection.
func randomReq(rng *rand.Rand) FrameRequest {
	w := 1 + rng.Intn(3000)
	req := FrameRequest{
		W:    w,
		K:    1 + rng.Intn(4),
		P:    0.05 + 0.95*rng.Float64(),
		Seed: rng.Uint64(),
	}
	if rng.Intn(4) == 0 {
		req.Observe = 1 + rng.Intn(w)
	}
	if rng.Intn(5) == 0 {
		req.Dist = Geometric
	}
	return req
}

// assertMatchesRef checks every query the estimators run against a frame.
func assertMatchesRef(t *testing.T, trial int, vec BitVec, ref refVec) {
	t.Helper()
	if vec.Len() != len(ref) {
		t.Fatalf("trial %d: Len = %d, ref %d", trial, vec.Len(), len(ref))
	}
	for i := range ref {
		if vec.Get(i) != ref[i] {
			t.Fatalf("trial %d: slot %d packed=%v ref=%v", trial, i, vec.Get(i), ref[i])
		}
	}
	if got, want := vec.CountBusy(), ref.countBusy(); got != want {
		t.Fatalf("trial %d: CountBusy = %d, ref %d", trial, got, want)
	}
	if got, want := vec.CountIdle(), ref.countIdle(); got != want {
		t.Fatalf("trial %d: CountIdle = %d, ref %d", trial, got, want)
	}
	if got, want := vec.RhoIdle(), ref.rhoIdle(); got != want {
		t.Fatalf("trial %d: RhoIdle = %v, ref %v", trial, got, want)
	}
	if got, want := vec.FirstBusy(), ref.firstBusy(); got != want {
		t.Fatalf("trial %d: FirstBusy = %d, ref %d", trial, got, want)
	}
	if got, want := vec.FirstIdle(), ref.firstIdle(); got != want {
		t.Fatalf("trial %d: FirstIdle = %d, ref %d", trial, got, want)
	}
	if got, want := vec.RunCount(), ref.runCount(); got != want {
		t.Fatalf("trial %d: RunCount = %d, ref %d", trial, got, want)
	}
}

// assertOccupancyMatchesRef checks a slot-state frame and the twins'
// transmission meters.
func assertOccupancyMatchesRef(t *testing.T, trial int, occ, ref Occupancy, got, want EnergyMeter) {
	t.Helper()
	if len(occ) != len(ref) {
		t.Fatalf("trial %d: %d slot states, ref %d", trial, len(occ), len(ref))
	}
	for i := range ref {
		if occ[i] != ref[i] {
			t.Fatalf("trial %d: slot %d is %v, ref %v", trial, i, occ[i], ref[i])
		}
	}
	if got.TagTransmissions() != want.TagTransmissions() {
		t.Fatalf("trial %d: metered %d transmissions, ref %d",
			trial, got.TagTransmissions(), want.TagTransmissions())
	}
}

// tagCases are frame geometries every hash mode runs in
// TestPackedTagEngineMatchesReference: BFCE's three frames at n = 100,000,
// the persistence edges (nobody responds; P below 0.5/1024, which
// paper-hash tags round to p_n = 0; everybody responds), hash counts past
// one TagHash group, and lottery frames of any width.
var tagCases = []FrameRequest{
	{W: 8192, K: 3, P: 8.0 / 1024, Observe: 32},             // BFCE's probe window
	{W: 8192, K: 3, P: 8.0 / 1024, Observe: 1024},           // BFCE's rough prefix
	{W: 8192, K: 3, P: 12.0 / 1024},                         // BFCE's accurate frame
	{W: 512, K: 2, P: 0},                                    // a silent frame
	{W: 512, K: 2, P: 0.4 / 1024, Observe: 300},             // p_n rounds to 0
	{W: 256, K: 1, P: 1},                                    // every tag responds
	{W: 2, K: 3, P: 0.7},                                    // the narrowest paper-hash frame
	{W: 1024, K: 9, P: 0.3, Observe: 700},                   // two hash groups
	{W: 64, K: 12, P: 1},                                    // two full-persistence groups
	{W: 32, K: 1, P: 1, Dist: Geometric},                    // LOF's lottery frame
	{W: 45, K: 9, P: 0.5, Dist: Geometric, Observe: 20},     // a lottery prefix of any width
	{W: 4096, K: 2, P: 0.002, Dist: Geometric, Observe: 40}, // a thinned lottery
}

// randomTagReq draws a frame geometry tags hashing under mode can
// address: any width (a power of two for paper-hash uniform frames),
// k ∈ [1, 9], persistence at either edge, below p_n's resolution or
// anywhere in [0, 1), occasional observed prefixes and lottery frames.
func randomTagReq(rng *rand.Rand, mode HashMode) FrameRequest {
	req := FrameRequest{K: 1 + rng.Intn(9)}
	if rng.Intn(4) == 0 {
		req.Dist = Geometric
	}
	if mode == PaperXOR && req.Dist == Uniform {
		req.W = 2 << rng.Intn(12)
	} else {
		req.W = 1 + rng.Intn(3000)
	}
	switch rng.Intn(6) {
	case 0:
		req.P = 0
	case 1:
		req.P = rng.Float64() * 0.5 / 1024
	case 2:
		req.P = 1
	default:
		req.P = rng.Float64()
	}
	if rng.Intn(3) == 0 {
		req.Observe = 1 + rng.Intn(req.W)
	}
	return req
}

// TestPackedTagEngineMatchesReference pins TagEngine, in every hash mode,
// to the per-tag decision it ran before TagHash (tagDecision): busy bits,
// slot states, first responses under a scan limit, transmissions, and
// the slots a prepared TagHash reports.
func TestPackedTagEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	pop := tags.Generate(5000, tags.T1, 61)
	for _, mode := range []HashMode{IdealRN, IdealID, PaperXOR} {
		t.Run(mode.String(), func(t *testing.T) {
			packed, ref := NewTagEngine(pop, mode), NewTagEngine(pop, mode)
			reqs := append([]FrameRequest(nil), tagCases...)
			for i := 0; i < 40; i++ {
				reqs = append(reqs, randomTagReq(rng, mode))
			}
			for trial, req := range reqs {
				req.Seed = rng.Uint64()
				assertTagFrameMatchesRef(t, trial, packed, ref, req, rng.Intn(req.W+1))
				for j, h := 0, PrepareTagHash(mode, req); j < req.K; j++ {
					if j == h.j0+h.n {
						h = prepareTagHash(mode, req, j) // the next group of hashes
					}
					tag := pop.Tags[rng.Intn(pop.N())]
					got := h.Slot(&tag, j)
					if want := refSlotFor(tag, mode, req.Dist, req.Seed, j, req.W); got != want {
						t.Fatalf("trial %d %+v: TagHash slot of hash %d = %d, ref %d", trial, req, j, got, want)
					}
				}
			}
		})
	}
}

// assertTagFrameMatchesRef runs req through twin tag engines, one on
// TagHash and one on the reference decision: a frame, a slot-state frame
// and a first-response scan of at most maxScan slots (0: all of them).
func assertTagFrameMatchesRef(t *testing.T, trial int, packed, ref *TagEngine, req FrameRequest, maxScan int) {
	t.Helper()
	assertMatchesRef(t, trial, packed.RunFrame(req), ref.refRunFrame(req))
	if packed.TagTransmissions() != ref.TagTransmissions() {
		t.Fatalf("trial %d %+v: metered %d transmissions, ref %d",
			trial, req, packed.TagTransmissions(), ref.TagTransmissions())
	}
	assertOccupancyMatchesRef(t, trial, packed.RunFrameOccupancy(req), ref.refRunFrameOccupancy(req), packed, ref)
	if got, want := packed.FirstResponse(req, maxScan), ref.refFirstResponse(req, maxScan); got != want {
		t.Fatalf("trial %d %+v: FirstResponse(%d) = %d, ref %d", trial, req, maxScan, got, want)
	}
	if packed.TagTransmissions() != ref.TagTransmissions() {
		t.Fatalf("trial %d %+v: first response metered %d transmissions, ref %d",
			trial, req, packed.TagTransmissions(), ref.TagTransmissions())
	}
}

// scatterCases are frame geometries in both of BallsEngine's scatter
// regimes for the populations of TestPackedBallsEngineMatchesReference:
// per-ball throwing while the expected response count n·k·p stays within
// 4W, binomial splitting past it (n = 300,000 and 10⁶ split every uniform
// case below but UPE's frame; n = 4,000 splits the first 1-slot frame and
// the unthinned geometric frames). A uniform prefix is thinned first, so
// its regime follows the prefix's own load: the rough prefix at P = 0.1
// still splits at n = 10⁶, while it throws one by one at n = 4,000, as
// the probe window does at n = 300,000 and 10⁶. The thinned 1-slot frames
// put ZOE's load, n·p ≈ 1.59, and about 3 responses on the slot at
// n = 4,000, where a frame of 2–4 responses must saturate its slot as
// adding them one by one did.
var scatterCases = []FrameRequest{
	{W: 8192, K: 3, P: 0.1},                                // BFCE's accurate frame
	{W: 8192, K: 3, P: 0.1, Observe: 1024},                 // BFCE's rough prefix
	{W: 8192, K: 3, P: 0.002, Observe: 32},                 // BFCE's probe window
	{W: 1024, K: 2, P: 0.9, Observe: 100},                  // a short prefix of a split frame
	{W: 3000, K: 4, P: 0.7, Observe: 2999},                 // all but the remainder slot
	{W: 1024, K: 1, P: 1.0 / 256},                          // UPE's measurement frame, per ball at every n
	{W: 1, K: 1, P: 0.3},                                   // ZOE's single slot
	{W: 1, K: 1, P: 1.59 / 4000},                           // ZOE's load at n = 4,000
	{W: 1, K: 1, P: 1.59 / 4000},                           // again, on another seed
	{W: 1, K: 1, P: 3.0 / 4000},                            // three responses on average
	{W: 1, K: 2, P: 1.0 / 4000, Dist: Geometric},           // a one-slot lottery
	{W: 32, K: 1, P: 1, Dist: Geometric},                   // LOF's lottery frame
	{W: 32, K: 1, P: 1, Dist: Geometric, Observe: 9},       // a geometric prefix
	{W: 64, K: 1, P: 0.001, Dist: Geometric, Observe: 63},  // a thinned lottery
	{W: 4096, K: 1, P: 0.05, Dist: Geometric, Observe: 40}, // a long geometric frame
}

// TestPackedBallsEngineMatchesReference pins the count-free scatter to the
// per-slot counts it replaced, thinned to the heard prefix as scatter
// thins it (heardPrefix): busy bits, slot states and transmissions, in
// both scatter regimes, with and without an observed prefix, under both
// slot distributions, and on one-slot frames, which draw no slot.
func TestPackedBallsEngineMatchesReference(t *testing.T) {
	// Twin engines with equal seeds hold identical RNG state; every frame
	// path advances it identically, so the twins stay in lockstep across
	// the whole sequence.
	rng := rand.New(rand.NewSource(808))
	crowded := 0 // one-slot slot-state frames that carried 2–4 responses
	// Uniform prefixes whose thinned load (responses per heard slot) puts
	// them well inside the splitting regime, or well inside the per-ball
	// regime with a few responses to throw.
	splitPrefixes, perBallPrefixes := 0, 0
	for _, n := range []int{0, 1, 4000, 300000, 1000000} {
		packed, ref := NewBallsEngine(n, 63), NewBallsEngine(n, 63)
		reqs := append([]FrameRequest(nil), scatterCases...)
		for i := 0; i < 30; i++ {
			reqs = append(reqs, randomReq(rng))
		}
		for trial, req := range reqs {
			req.Seed = rng.Uint64()
			if req.Dist == Uniform && req.Observe > 0 && req.Observe < req.W {
				switch load := float64(n*req.K) * req.P / float64(req.W); {
				case load > 8:
					splitPrefixes++
				case load < 2 && load*float64(req.Observe) >= 5:
					perBallPrefixes++
				}
			}
			assertMatchesRef(t, trial, packed.RunFrame(req), ref.refRunFrame(req))
			if packed.TagTransmissions() != ref.TagTransmissions() {
				t.Fatalf("n=%d trial %d: metered %d transmissions, ref %d",
					n, trial, packed.TagTransmissions(), ref.TagTransmissions())
			}
			before := packed.TagTransmissions()
			assertOccupancyMatchesRef(t, trial, packed.RunFrameOccupancy(req), ref.refRunFrameOccupancy(req), packed, ref)
			if tx := packed.TagTransmissions() - before; req.W == 1 && tx >= 2 && tx <= 4 {
				crowded++
			}
		}
	}
	if crowded < 2 {
		t.Fatalf("%d one-slot frames carried 2–4 responses, want at least 2", crowded)
	}
	if splitPrefixes == 0 || perBallPrefixes == 0 {
		t.Fatalf("thinned prefixes: %d split, %d thrown one by one; want both regimes",
			splitPrefixes, perBallPrefixes)
	}
}

func TestPackedSmallPopulationsMatchReference(t *testing.T) {
	// Edge populations: empty and single-tag inventories over tiny frames,
	// where all-idle vectors, W=1 frames and tail words dominate.
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 3} {
		pop := tags.Generate(n, tags.T1, uint64(100+n))
		packed := NewTagEngine(pop, IdealRN)
		ref := NewTagEngine(pop, IdealRN)
		for trial := 0; trial < 40; trial++ {
			req := FrameRequest{
				W:    1 + rng.Intn(130),
				K:    1 + rng.Intn(3),
				P:    1,
				Seed: rng.Uint64(),
			}
			assertMatchesRef(t, trial, packed.RunFrame(req), ref.refRunFrame(req))
		}
	}
}
