package channel

import (
	"fmt"
	"math/rand"
	"testing"

	"rfidest/internal/hash"
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
// the slots a prepared TagHash reports. The populations span no tag, one
// partial 64-tag block, one whole block, a block and a lane, and many
// blocks, where paper-hash tags are decided a block at a time.
func TestPackedTagEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for _, mode := range []HashMode{IdealRN, IdealID, PaperXOR} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, n := range []int{0, 1, 63, 64, 65, 5000} {
				pop := tags.Generate(n, tags.T1, 61)
				t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
					packed, ref := NewTagEngine(pop, mode), NewTagEngine(pop, mode)
					reqs := append([]FrameRequest(nil), tagCases...)
					for i := 0; i < 40; i++ {
						reqs = append(reqs, randomTagReq(rng, mode))
					}
					for trial, req := range reqs {
						req.Seed = rng.Uint64()
						assertTagFrameMatchesRef(t, trial, packed, ref, req, rng.Intn(req.W+1))
						if n == 0 {
							continue // no tag to spot-check a slot of
						}
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
		})
	}
}

// TestBelowMatchesPaperPersistence pins the bit-sliced coin to the
// per-tag rule: for every p_n and every rotation a frame can prepare,
// lane l of below over a block of random RNs is hash.PaperPersistence of
// that block's tag l.
func TestBelowMatchesPaperPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 8; trial++ {
		pop := &tags.Population{Tags: make([]tags.Tag, 64)}
		for i := range pop.Tags {
			pop.Tags[i].RN = rng.Uint32()
		}
		blk := (*[32]uint64)(pop.RNPlanes())
		for pn := 0; pn <= 1024; pn++ {
			for rot := uint(0); rot < 23; rot++ {
				got := below(blk, rot, pn)
				for l, tag := range pop.Tags {
					if want := hash.PaperPersistence(tag.RN, rot, pn); got>>l&1 == 1 != want {
						t.Fatalf("trial %d: p_n %d, rotation %d: lane %d (RN %#x) below = %v, want %v",
							trial, pn, rot, l, tag.RN, !want, want)
					}
				}
			}
		}
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

// scatterCases are frame geometries in every one of BallsEngine's
// scatter regimes for the populations of
// TestPackedBallsEngineMatchesReference. A uniform prefix is thinned
// first, so its regime follows the prefix's own load: the rough prefix at
// P = 0.1 splits at n = 10⁶ (about 37 responses per slot) and is thrown
// one by one at n = 4,000, as the probe window is at n = 300,000 and 10⁶,
// while the short prefix at P = 0.9 is written saturated from
// n = 300,000. UPE's calibration frame is saturated from n = 300,000 and
// the frame at P = 0.04 splits at n = 10⁶. LOF's lottery frame has a head
// from n = 4,000 and none at n = 1, the short lottery's head reaches its
// last slot at n = 10⁶, and the geometric prefixes are thrown or split
// whole. The one-slot frames put ZOE's load, n·p ≈ 1.59, and about 3
// responses on the slot at n = 4,000, where a frame of 2–4 responses must
// saturate its slot as adding them one by one did.
var scatterCases = []FrameRequest{
	{W: 8192, K: 3, P: 0.1},                                // BFCE's accurate frame
	{W: 8192, K: 3, P: 0.1, Observe: 1024},                 // BFCE's rough prefix
	{W: 8192, K: 3, P: 0.002, Observe: 32},                 // BFCE's probe window
	{W: 1024, K: 2, P: 0.9, Observe: 100},                  // a short prefix of a saturated frame
	{W: 3000, K: 4, P: 0.7, Observe: 2999},                 // all but the remainder slot
	{W: 1024, K: 1, P: 1.0 / 256},                          // UPE's measurement frame, per ball at every n
	{W: 1024, K: 1, P: 0.25},                               // UPE's calibration frame
	{W: 1024, K: 1, P: 0.04},                               // between the crossover and saturation at n = 10⁶
	{W: 1, K: 1, P: 0.3},                                   // ZOE's single slot
	{W: 1, K: 1, P: 1.59 / 4000},                           // ZOE's load at n = 4,000
	{W: 1, K: 1, P: 1.59 / 4000},                           // again, on another seed
	{W: 1, K: 1, P: 3.0 / 4000},                            // three responses on average
	{W: 1, K: 2, P: 1.0 / 4000, Dist: Geometric},           // a one-slot lottery
	{W: 32, K: 1, P: 1, Dist: Geometric},                   // LOF's lottery frame
	{W: 4, K: 1, P: 1, Dist: Geometric},                    // a short lottery
	{W: 32, K: 1, P: 1, Dist: Geometric, Observe: 9},       // a geometric prefix
	{W: 64, K: 1, P: 0.001, Dist: Geometric, Observe: 63},  // a thinned lottery
	{W: 4096, K: 1, P: 0.05, Dist: Geometric, Observe: 40}, // a long geometric frame
}

// TestPackedBallsEngineMatchesReference pins the count-free scatter to the
// per-slot counts it replaced, placed regime by regime as scatter places
// them (scatterPlaced): busy bits, slot states and transmissions, with
// and without an observed prefix, under both slot distributions. Every
// regime must be taken, by whole frames and by thinned prefixes alike.
func TestPackedBallsEngineMatchesReference(t *testing.T) {
	// Twin engines with equal seeds hold identical RNG state; every frame
	// path advances it identically, so the twins stay in lockstep across
	// the whole sequence.
	rng := rand.New(rand.NewSource(808))
	crowded := 0 // one-slot slot-state frames that carried 2–4 responses
	placed, thinned := map[string]int{}, map[string]int{}
	for _, n := range []int{0, 1, 4000, 300000, 1000000} {
		packed, ref := NewBallsEngine(n, 63), NewBallsEngine(n, 63)
		reqs := append([]FrameRequest(nil), scatterCases...)
		for i := 0; i < 30; i++ {
			reqs = append(reqs, randomReq(rng))
		}
		for trial, req := range reqs {
			req.Seed = rng.Uint64()
			counts, how := ref.refPlaced(req)
			assertMatchesRef(t, trial, packed.RunFrame(req), busyOf(counts))
			if packed.TagTransmissions() != ref.TagTransmissions() {
				t.Fatalf("n=%d trial %d: metered %d transmissions, ref %d",
					n, trial, packed.TagTransmissions(), ref.TagTransmissions())
			}
			placed[how]++
			if req.Dist == Uniform && req.Observe > 0 && req.Observe < req.W {
				thinned[how]++
			}
			before := packed.TagTransmissions()
			counts, how = ref.refPlaced(req)
			assertOccupancyMatchesRef(t, trial, packed.RunFrameOccupancy(req), statesOf(counts), packed, ref)
			if tx := packed.TagTransmissions() - before; req.W == 1 && tx >= 2 && tx <= 4 {
				crowded++
			}
			placed[how+" (slot states)"]++
		}
	}
	if crowded < 2 {
		t.Fatalf("%d one-slot frames carried 2–4 responses, want at least 2", crowded)
	}
	for _, how := range []string{"one slot", "lottery", "lottery head", "saturated", "thrown", "split"} {
		if placed[how] == 0 || placed[how+" (slot states)"] == 0 {
			t.Errorf("no frame placed %q in both frame kinds (%v)", how, placed)
		}
	}
	for _, how := range []string{"saturated", "thrown", "split"} {
		if thinned[how] == 0 {
			t.Errorf("no thinned prefix placed %q (%v)", how, thinned)
		}
	}
}

// unthinnedCases are frames scatter does not thin: uniform frames heard
// whole (Observe 0 or W), one-slot frames, lottery frames with and
// without a head, and geometric prefixes, in every regime for the
// populations of TestUnthinnedFramesMatchWholeFrame.
var unthinnedCases = []FrameRequest{
	{W: 8192, K: 3, P: 0.1},                                // BFCE's accurate frame; splits at n = 10⁶
	{W: 8192, K: 3, P: 2.0 / 1024},                         // the accurate frame at p_o = 2/1024
	{W: 3000, K: 4, P: 0.7, Observe: 3000},                 // a prefix that is the whole frame; saturated from n = 300,000
	{W: 1024, K: 1, P: 1.0 / 256},                          // UPE's measurement frame
	{W: 1024, K: 1, P: 0.25},                               // UPE's calibration frame
	{W: 1, K: 1, P: 0.3},                                   // ZOE's single slot
	{W: 1, K: 1, P: 1.59 / 4000},                           // ZOE's load at n = 4,000
	{W: 32, K: 1, P: 1, Dist: Geometric},                   // LOF's lottery frame
	{W: 32, K: 1, P: 0.02, Dist: Geometric},                // a lottery without a head at n = 4,000
	{W: 32, K: 1, P: 1, Dist: Geometric, Observe: 9},       // a geometric prefix
	{W: 4096, K: 1, P: 0.05, Dist: Geometric, Observe: 40}, // a long geometric prefix
}

// TestUnthinnedFramesMatchWholeFrame pins every frame scatter does not
// thin to the exact law (wholeFrame) draw for draw, through twin engines
// in lockstep: busy bits, slot states and transmissions. Frames scatter
// places exactly (thrown, split, one slot, and a lottery without a head,
// which draws the words throwing every response drew) take the same
// draws. A saturated frame matches too: the exact frame it stands for is
// saturated as well, but with probability 2^-64. A lottery with a head
// throws other draws past its head, so it is held to the exact law only
// on its transmissions here and in distribution by
// TestScatterRegimesKeepLaw; a third twin says which regime placed each
// frame.
func TestUnthinnedFramesMatchWholeFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(2310))
	placed := map[string]int{}
	for _, n := range []int{0, 1, 4000, 300000, 1000000} {
		engine, whole, law := NewBallsEngine(n, 77), NewBallsEngine(n, 77), NewBallsEngine(n, 77)
		reqs := append([]FrameRequest(nil), unthinnedCases...)
		for len(reqs) < len(unthinnedCases)+30 {
			req := randomReq(rng)
			if req.Dist == Uniform && req.Observe > 0 {
				req.Observe = req.W
			}
			reqs = append(reqs, req)
		}
		for trial, req := range reqs {
			req.Seed = rng.Uint64()
			_, how := law.refPlaced(req)
			vec, counts := engine.RunFrame(req), whole.refCounts(req, wholeFrame)
			if how != "lottery head" {
				assertMatchesRef(t, trial, vec, busyOf(counts))
			}
			if engine.TagTransmissions() != whole.TagTransmissions() {
				t.Fatalf("n=%d trial %d %+v: metered %d transmissions, whole frame %d",
					n, trial, req, engine.TagTransmissions(), whole.TagTransmissions())
			}
			placed[how]++
			_, how = law.refPlaced(req)
			occ, counts := engine.RunFrameOccupancy(req), whole.refCounts(req, wholeFrame)
			if how == "lottery head" {
				occ = statesOf(counts) // compare the meters only
			}
			assertOccupancyMatchesRef(t, trial, occ, statesOf(counts), engine, whole)
			placed[how+" (slot states)"]++
		}
	}
	for _, how := range []string{"one slot", "lottery", "saturated", "thrown", "split"} {
		if placed[how] == 0 || placed[how+" (slot states)"] == 0 {
			t.Errorf("no frame placed %q in both frame kinds (%v)", how, placed)
		}
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
