package channel

import (
	"math/rand"
	"testing"

	"rfidest/internal/tags"
)

// These tests pin the word-packed BitVec to the retained []bool reference
// path (reference_test.go): for randomized frame geometries the packed engines
// must produce bit-identical frames, identical transmission metering, and
// identical aggregate queries.

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
	if got, want := vec.Runs(), ref.runs(); !runsEqual(got, want) {
		t.Fatalf("trial %d: Runs = %v, ref %v", trial, got, want)
	}
}

func TestPackedTagEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	pop := tags.Generate(5000, tags.T1, 61)
	packed := NewTagEngine(pop, IdealRN)
	ref := NewTagEngine(pop, IdealRN)
	for trial := 0; trial < 60; trial++ {
		req := randomReq(rng)
		assertMatchesRef(t, trial, packed.RunFrame(req), ref.refRunFrame(req))
		if packed.TagTransmissions() != ref.TagTransmissions() {
			t.Fatalf("trial %d: metered %d transmissions, ref %d",
				trial, packed.TagTransmissions(), ref.TagTransmissions())
		}
	}
}

func TestPackedBallsEngineMatchesReference(t *testing.T) {
	// Twin engines with equal seeds hold identical RNG state; both RunFrame
	// paths advance it identically, so the twins stay in lockstep across
	// the whole randomized sequence.
	rng := rand.New(rand.NewSource(808))
	packed := NewBallsEngine(4000, 63)
	ref := NewBallsEngine(4000, 63)
	for trial := 0; trial < 60; trial++ {
		req := randomReq(rng)
		assertMatchesRef(t, trial, packed.RunFrame(req), ref.refRunFrame(req))
		if packed.TagTransmissions() != ref.TagTransmissions() {
			t.Fatalf("trial %d: metered %d transmissions, ref %d",
				trial, packed.TagTransmissions(), ref.TagTransmissions())
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
