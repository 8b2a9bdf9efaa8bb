package rfidest

import (
	"context"
	"math"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sys := NewSystem(500000, WithSeed(42))
	est, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.N-500000)/500000 > 0.05 {
		t.Fatalf("estimate %v outside 5%% of 500000", est.N)
	}
	if est.Seconds > 0.25 {
		t.Fatalf("BFCE air time %v s", est.Seconds)
	}
	if !est.Guarded {
		t.Fatal("BFCE at n=500000 must be guarded")
	}
}

func TestDistributions(t *testing.T) {
	for _, d := range []Distribution{Uniform, ApproxNormal, Normal} {
		sys := NewSystem(50000, WithSeed(7), WithDistribution(d))
		if sys.Distribution() != d {
			t.Fatalf("distribution not stored: %v", d)
		}
		est, err := sys.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.N-50000)/50000 > 0.05 {
			t.Fatalf("%v: estimate %v", d, est.N)
		}
		if d.String() == "" {
			t.Fatal("empty distribution name")
		}
	}
}

func TestSyntheticSystem(t *testing.T) {
	// The (ε, δ) requirement is probabilistic: check the violation *rate*
	// across many independent systems rather than a single lucky run.
	bad := 0
	const trials = 60
	for seed := uint64(0); seed < trials; seed++ {
		sys := NewSystem(300000, WithSeed(seed), WithSynthetic())
		est, err := sys.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.N-300000)/300000 > 0.05 {
			bad++
		}
	}
	// δ = 0.05 → expect ~3 violations in 60; 8 is > 3σ above that.
	if bad > 8 {
		t.Fatalf("epsilon violated in %d/%d synthetic runs (delta=0.05)", bad, trials)
	}
}

func TestPaperTagHashOption(t *testing.T) {
	sys := NewSystem(100000, WithSeed(11), WithPaperTagHash())
	est, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.N-100000)/100000 > 0.08 {
		t.Fatalf("paper-hash estimate %v", est.N)
	}
}

func TestIDHashOption(t *testing.T) {
	sys := NewSystem(100000, WithSeed(13), WithIDHash(), WithDistribution(Normal))
	est, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.N-100000)/100000 > 0.05 {
		t.Fatalf("id-hash estimate %v", est.N)
	}
}

func TestNoiseOption(t *testing.T) {
	sys := NewSystem(100000, WithSeed(15), WithNoise(0.01, 0.01))
	est, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Noise degrades but does not wreck the estimate at 1% error rates.
	if math.Abs(est.N-100000)/100000 > 0.2 {
		t.Fatalf("noisy estimate %v", est.N)
	}
}

func TestEstimateWithAllRegistered(t *testing.T) {
	names := Estimators()
	if len(names) != 12 {
		t.Fatalf("estimator registry size = %d", len(names))
	}
	sys := NewSystem(100000, WithSeed(17), WithSynthetic())
	for _, name := range names {
		est, err := sys.Run(context.Background(), WithEstimator(name), WithAccuracy(0.1, 0.1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tolerance := 0.2
		if name == "LOF" || name == "PET" {
			tolerance = 1.0 // rough/loglog family: constant-factor only
		}
		if math.Abs(est.N-100000)/100000 > tolerance {
			t.Fatalf("%s estimate %v", name, est.N)
		}
		if est.Seconds <= 0 {
			t.Fatalf("%s reported no air time", name)
		}
	}
}

func TestEstimateWithUnknownName(t *testing.T) {
	sys := NewSystem(10, WithSynthetic())
	if _, err := sys.Run(context.Background(), WithEstimator("nope"), WithAccuracy(0.1, 0.1)); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

func TestEstimateWithBadAccuracy(t *testing.T) {
	sys := NewSystem(10, WithSynthetic())
	for _, bad := range [][2]float64{{0, 0.1}, {0.1, 0}, {1, 0.1}, {0.1, 1}} {
		if _, err := sys.Run(context.Background(), WithEstimator("BFCE"), WithAccuracy(bad[0], bad[1])); err == nil {
			t.Fatalf("bad accuracy %v accepted", bad)
		}
	}
}

func TestRepeatedEstimatesAreIndependent(t *testing.T) {
	sys := NewSystem(200000, WithSeed(19))
	a, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.N == b.N {
		t.Fatal("two estimation sessions produced identical estimates (sessions not independent)")
	}
}

func TestDeterministicAcrossSystems(t *testing.T) {
	a, err := NewSystem(50000, WithSeed(21)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSystem(50000, WithSeed(21)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.N != b.N || a.Seconds != b.Seconds {
		t.Fatal("same seed did not reproduce the same estimate")
	}
}

func TestBFCEDetail(t *testing.T) {
	sys := NewSystem(250000, WithSeed(23))
	det, err := sys.RunBFCEDetail(context.Background(), WithAccuracy(0.05, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !det.Feasible || det.Saturated {
		t.Fatalf("detail flags: %+v", det)
	}
	if det.LowerBound > 250000 {
		t.Fatalf("lower bound %v exceeds n", det.LowerBound)
	}
	if det.LowerBound < 50000 {
		t.Fatalf("lower bound %v implausibly small", det.LowerBound)
	}
	if det.OptimalPn < 1 || det.OptimalPn > 1023 {
		t.Fatalf("optimal pn %d out of range", det.OptimalPn)
	}
	if math.Abs(det.Estimate.N-250000)/250000 > 0.05 {
		t.Fatalf("detail estimate %v", det.Estimate.N)
	}
}

func TestBFCEDetailBadConfig(t *testing.T) {
	sys := NewSystem(10, WithSynthetic())
	if _, err := sys.RunBFCEDetail(context.Background(), WithAccuracy(0, 0.5)); err == nil {
		t.Fatal("bad epsilon accepted")
	}
}

func TestConstantTimeBudget(t *testing.T) {
	b := ConstantTimeBudget()
	if b <= 0.18 || b >= 0.19 {
		t.Fatalf("budget %v, paper says just under 0.19 s", b)
	}
}

func TestMaxCardinality(t *testing.T) {
	if MaxCardinality() < 19e6 {
		t.Fatalf("max cardinality %v, paper says > 19 million", MaxCardinality())
	}
}

func TestNewSystemPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative n did not panic")
		}
	}()
	NewSystem(-1)
}

func TestSystemN(t *testing.T) {
	if NewSystem(123, WithSynthetic()).N() != 123 {
		t.Fatal("N() wrong")
	}
}

func TestEstimateReportsTagTransmissions(t *testing.T) {
	// BFCE triggers ~n·k·(p_s·(probe+rough fraction) + p_o) responses —
	// far fewer than one per tag at these scales.
	sys := NewSystem(200000, WithSeed(51))
	est, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if est.TagTransmissions <= 0 {
		t.Fatalf("TagTransmissions = %d", est.TagTransmissions)
	}
	perTag := float64(est.TagTransmissions) / 200000
	if perTag > 0.1 {
		t.Fatalf("BFCE triggered %v transmissions per tag, expected ≪ 1", perTag)
	}
	// LOF makes every tag respond every round: 10 tx/tag exactly.
	lof, err := sys.Run(context.Background(), WithEstimator("LOF"), WithAccuracy(0.1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if lof.TagTransmissions != 10*200000 {
		t.Fatalf("LOF transmissions = %d, want exactly 10 per tag", lof.TagTransmissions)
	}
}
