package rfidest

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestAccuracyRejectsNonFinite pins the NaN hole in (ε, δ) validation: NaN
// passes a negated `<= 0 || >= 1` range check because every comparison
// against NaN is false, and a NaN ε then flows into the optimal-p search
// where it silently disables the guarantee machinery. The shared check is
// now positively phrased (stats.InUnitInterval), so NaN and ±Inf are
// rejected at every public entry point.
//
// The rows that name an estimator are in range but extreme: ZOE and SRC
// size their accurate phase from (ε, δ), and these targets used to overflow
// that size into a panic or a corrupt result. ZOE and SRC now refuse them
// with ErrSlotLimit before a session opens; ZOE-batched caps its
// observation count and answers.
func TestAccuracyRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name           string
		estimator      string // "" runs every BFCE entry point
		epsilon, delta float64
	}{
		{"nan-epsilon", "", nan, 0.05},
		{"nan-delta", "", 0.05, nan},
		{"nan-both", "", nan, nan},
		{"inf-epsilon", "", inf, 0.05},
		{"neg-inf-delta", "", 0.05, -inf},
		{"zero-epsilon", "", 0, 0.05},
		{"one-delta", "", 0.05, 1},
		{"negative-epsilon", "", -0.05, 0.05},
		{"above-one-delta", "", 0.05, 1.5},
		{"src-tiny-epsilon", "SRC", 1e-9, 0.05},
		{"zoe-tiny-delta", "ZOE", 0.05, 1e-300},
		{"zoe-batched-tiny-delta", "ZOE-batched", 0.05, 1e-300},
		{"src-tiny-both", "SRC", 1e-9, 1e-9},
		{"zoe-tiny-both", "ZOE", 1e-9, 1e-9},
		{"zoe-batched-tiny-both", "ZOE-batched", 1e-9, 1e-9},
	}
	sys := NewSystem(100, WithSeed(3))
	big := NewSystem(2000, WithSynthetic(), WithSeed(3))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.estimator == "ZOE-batched" {
				est, err := big.Run(nil, WithEstimator(c.estimator), WithAccuracy(c.epsilon, c.delta), WithSalt(1))
				if err != nil {
					t.Fatalf("ZOE-batched at (ε, δ) = (%v, %v): %v", c.epsilon, c.delta, err)
				}
				// The rough phase's slots plus at most the 65536-slot cap.
				if math.IsInf(est.N, 0) || math.IsNaN(est.N) || est.Slots <= 0 || est.Slots > 65536+1024 {
					t.Errorf("ZOE-batched at (ε, δ) = (%v, %v) answered %+v", c.epsilon, c.delta, est)
				}
				return
			}
			if c.estimator != "" {
				_, err := big.Run(nil, WithEstimator(c.estimator), WithAccuracy(c.epsilon, c.delta), WithSalt(1))
				if !errors.Is(err, ErrSlotLimit) {
					t.Errorf("%s at (ε, δ) = (%v, %v): err = %v, want ErrSlotLimit", c.estimator, c.epsilon, c.delta, err)
				}
				return
			}
			if _, err := sys.Run(nil, WithAccuracy(c.epsilon, c.delta)); err == nil {
				t.Errorf("Run accepted (ε, δ) = (%v, %v)", c.epsilon, c.delta)
			} else if !strings.Contains(err.Error(), "epsilon and delta") {
				t.Errorf("unexpected error: %v", err)
			}
			if _, err := sys.RunBFCEDetail(nil, WithAccuracy(c.epsilon, c.delta)); err == nil {
				t.Errorf("RunBFCEDetail accepted (ε, δ) = (%v, %v)", c.epsilon, c.delta)
			}
			if _, err := NewMonitor(c.epsilon, c.delta, 0); err == nil {
				t.Errorf("NewMonitor accepted (ε, δ) = (%v, %v)", c.epsilon, c.delta)
			}
		})
	}
	// Invalid calls must not advance the session counter (the validation
	// order in startRun is load-bearing for salt-free reproducibility).
	before, err := sys.Run(nil, WithSalt(99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(nil, WithAccuracy(nan, nan)); err == nil {
		t.Fatal("NaN accuracy accepted")
	}
	after, err := sys.Run(nil, WithSalt(99))
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("salted replay changed after invalid call: %+v vs %+v", before, after)
	}
}

// TestNoiseRejectsNonFiniteRates covers the same hole in the channel error
// model: a NaN rate used to pass `< 0 || > 1` and silently disable the
// noise draw for every slot.
func TestNoiseRejectsNonFiniteRates(t *testing.T) {
	for _, rates := range [][2]float64{
		{math.NaN(), 0},
		{0, math.NaN()},
		{math.Inf(1), 0},
		{-0.1, 0},
		{0, 1.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("noise rates (%v, %v) accepted", rates[0], rates[1])
				}
			}()
			sys := NewSystem(10, WithNoise(rates[0], rates[1]))
			sys.Run(nil, WithSalt(1))
		}()
	}
}

// TestMergeRejectsInfeasibleUnion pins the new Merge contract: the union of
// populations of sizes n_1..n_k has cardinality in [max(n_i), sum(n_i)],
// and all sub-systems must share one hash mode.
func TestMergeRejectsInfeasibleUnion(t *testing.T) {
	a := PopulationAt(720, 0, 5000)
	b := PopulationAt(720, 2000, 5000)

	if _, err := Merge(4999, a, b); err == nil {
		t.Fatal("unionN below max(subN) accepted")
	}
	if _, err := Merge(10001, a, b); err == nil {
		t.Fatal("unionN above sum(subN) accepted")
	}
	for _, ok := range []int{5000, 7000, 10000} {
		if _, err := Merge(ok, a, b); err != nil {
			t.Fatalf("feasible unionN %d rejected: %v", ok, err)
		}
	}

	paper := NewSystem(5000, WithSeed(721), WithPaperTagHash())
	if _, err := Merge(8000, a, paper); err == nil {
		t.Fatal("mixed hash modes accepted")
	} else if !strings.Contains(err.Error(), "hash mode") {
		t.Fatalf("unexpected mixed-mode error: %v", err)
	}
}
