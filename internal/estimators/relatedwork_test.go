package estimators

import (
	"math"
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/stats"
	"rfidest/internal/tags"
)

// relatedWork lists the §II estimators with a loose accuracy target; they
// are breadth implementations whose job is to land near the truth with
// sensible costs, not to reproduce their own papers' exact constants.
func relatedWork() []Estimator {
	return []Estimator{NewUPE(), NewEZB(), NewFNEB(), NewMLE(), NewART(), NewPET()}
}

func TestRelatedWorkNames(t *testing.T) {
	want := map[string]bool{"UPE": true, "EZB": true, "FNEB": true, "MLE": true, "ART": true, "PET": true}
	for _, e := range relatedWork() {
		if !want[e.Name()] {
			t.Fatalf("unexpected name %q", e.Name())
		}
	}
	if (&UPE{CollisionBased: true}).Name() != "UPE-collision" {
		t.Fatal("UPE collision name drifted")
	}
}

func TestRelatedWorkNilSession(t *testing.T) {
	for _, e := range relatedWork() {
		if _, err := Estimate(e, nil, Default); err == nil {
			t.Fatalf("%s accepted nil session", e.Name())
		}
	}
}

func TestRelatedWorkAccuracy(t *testing.T) {
	// Each estimator, run at (0.1, 0.1), must land within 15% of truth on
	// a 100k population (their own guarantee plus implementation slack).
	const n = 100000
	acc := Accuracy{Epsilon: 0.1, Delta: 0.1}
	for _, e := range relatedWork() {
		res, err := Estimate(e, newSession(n, 301), acc)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if rel := stats.RelError(res.Estimate, n); rel > 0.15 {
			t.Fatalf("%s: estimate %v (rel %v)", e.Name(), res.Estimate, rel)
		}
		if res.Seconds <= 0 || res.Cost.TagSlots <= 0 {
			t.Fatalf("%s: missing cost accounting: %+v", e.Name(), res)
		}
	}
}

func TestUPECollisionVariant(t *testing.T) {
	e := &UPE{CollisionBased: true}
	res, err := Estimate(e, newSession(50000, 303), Accuracy{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelError(res.Estimate, 50000); rel > 0.2 {
		t.Fatalf("UPE-collision estimate %v (rel %v)", res.Estimate, rel)
	}
}

func TestUPECalibrationHalvesP(t *testing.T) {
	// A million tags saturate a 1024-slot frame at p=1: calibration must
	// run several halving rounds before measuring.
	res, err := Estimate(NewUPE(), newSession(1000000, 305), Accuracy{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 5 {
		t.Fatalf("calibration too short: %d rounds", res.Rounds)
	}
	if rel := stats.RelError(res.Estimate, 1e6); rel > 0.15 {
		t.Fatalf("UPE estimate %v (rel %v)", res.Estimate, rel)
	}
}

func TestUPEAlohaSlotPricing(t *testing.T) {
	// UPE slots cost channel.AlohaSlotBits tag bits each.
	res, err := Estimate(NewUPE(), newSession(10000, 307), Accuracy{0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.TagSlots != res.Slots*channel.AlohaSlotBits {
		t.Fatalf("tag bits %d != slots %d × %d", res.Cost.TagSlots, res.Slots, channel.AlohaSlotBits)
	}
}

func TestFNEBScanCost(t *testing.T) {
	// FNEB senses only ~L/n slots per round, far fewer than a frame.
	res, err := Estimate(NewFNEB(), newSession(100000, 309), Accuracy{0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	perRound := float64(res.Slots-320) / float64(res.Rounds-10) // minus rough LOF
	if perRound > 1000 {
		t.Fatalf("FNEB scans %v slots/round, expected ~65", perRound)
	}
}

func TestFNEBEmptyPopulation(t *testing.T) {
	res, err := Estimate(NewFNEB(), newSession(0, 311), Accuracy{0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("FNEB on empty population = %v", res.Estimate)
	}
}

func TestMLEMatchesClosedForm(t *testing.T) {
	// The golden-section maximizer must agree with the closed form.
	got := mleMaximize(3000, 8192, 0.01, 1024)
	want := math.Log(3000.0/8192) / math.Log1p(-0.01/1024)
	if math.Abs(got-want)/want > 0.001 {
		t.Fatalf("mleMaximize = %v, closed form %v", got, want)
	}
}

func TestPETProbeBudget(t *testing.T) {
	// PET touches only ⌈log2 depth⌉ slots per round.
	res, err := Estimate(NewPET(), newSession(100000, 313), Accuracy{0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots > res.Rounds*5 {
		t.Fatalf("PET probed %d slots in %d rounds (> 5/round)", res.Slots, res.Rounds)
	}
}

func TestPETEmptyPopulation(t *testing.T) {
	res, err := Estimate(NewPET(), newSession(0, 315), Accuracy{0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("PET on empty population = %v", res.Estimate)
	}
}

func TestARTRunStatistic(t *testing.T) {
	// ART at moderate n with a per-tag engine (it reads run structure,
	// which the balls engine also reproduces — cross-check both).
	r := newTagSession(t, 50000, tags.T3, 317)
	res, err := Estimate(NewART(), r, Accuracy{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelError(res.Estimate, 50000); rel > 0.15 {
		t.Fatalf("ART estimate %v (rel %v)", res.Estimate, rel)
	}
}

func TestCollisionInvert(t *testing.T) {
	// Round-trip: c(λ) = 1 − e^{-λ}(1+λ).
	for _, lambda := range []float64{0.1, 0.5, 1, 2, 5} {
		c := 1 - math.Exp(-lambda)*(1+lambda)
		got := collisionInvert(c, 1000) / 1000
		if math.Abs(got-lambda)/lambda > 0.001 {
			t.Fatalf("collisionInvert(λ=%v) = %v", lambda, got)
		}
	}
	if collisionInvert(0, 10) != 0 {
		t.Fatal("c=0 must invert to 0")
	}
	if got := collisionInvert(1, 10); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("c=1 must stay finite, got %v", got)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 64, 1: 64, 64: 64, 65: 128, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Fatalf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 32: 5, 33: 6, 1024: 10}
	for in, want := range cases {
		if got := bitsFor(in); got != want {
			t.Fatalf("bitsFor(%d) = %d, want %d", in, got, want)
		}
	}
}
