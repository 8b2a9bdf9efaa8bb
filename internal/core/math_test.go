package core

import (
	"math"
	"testing"

	"rfidest/internal/stats"
	"rfidest/internal/xrand"
)

func TestLambda(t *testing.T) {
	// λ = k·p·n/w: 3·0.1·8192/8192 = 0.3.
	if got := Lambda(8192, 3, 0.1, 8192); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Lambda = %v", got)
	}
}

func TestRhoExpectedAndInverse(t *testing.T) {
	// EstimateFromRho must invert RhoExpected exactly.
	for _, n := range []float64{1000, 50000, 500000, 5e6} {
		rho := RhoExpected(n, 3, 0.01, 8192)
		back := EstimateFromRho(rho, 3, 0.01, 8192)
		if math.Abs(back-n)/n > 1e-9 {
			t.Fatalf("inverse failed at n=%v: %v", n, back)
		}
	}
}

func TestEstimateFromRhoDegenerate(t *testing.T) {
	if !math.IsInf(EstimateFromRho(0, 3, 0.1, 8192), 1) {
		t.Fatal("rho=0 must estimate +Inf")
	}
	if EstimateFromRho(1, 3, 0.1, 8192) != 0 {
		t.Fatal("rho=1 must estimate 0")
	}
}

func TestSigmaXShape(t *testing.T) {
	// σ(X) peaks at e^{-λ} = 1/2 (λ = ln 2) with value 0.5 — the paper's
	// σ(x)_max = 0.5.
	if got := SigmaX(math.Ln2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("SigmaX(ln2) = %v", got)
	}
	if SigmaX(0.001) > 0.1 || SigmaX(10) > 0.1 {
		t.Fatal("SigmaX must vanish at the extremes")
	}
}

func TestF1F2Signs(t *testing.T) {
	for _, n := range []float64{1000, 1e4, 1e5, 1e6} {
		if F1(n, 3, 0.01, 8192, 0.05) >= 0 {
			t.Fatalf("F1(%v) not negative", n)
		}
		if F2(n, 3, 0.01, 8192, 0.05) <= 0 {
			t.Fatalf("F2(%v) not positive", n)
		}
	}
}

func TestF1F2MonotoneSmallP(t *testing.T) {
	// Fig. 5: with small p, f1 decreases and f2 increases in n.
	const p = 3.0 / 1024
	prev1, prev2 := math.Inf(1), math.Inf(-1)
	for n := 50000.0; n <= 1e6; n += 50000 {
		f1 := F1(n, 3, p, 8192, 0.05)
		f2 := F2(n, 3, p, 8192, 0.05)
		if f1 >= prev1 {
			t.Fatalf("f1 not decreasing at n=%v", n)
		}
		if f2 <= prev2 {
			t.Fatalf("f2 not increasing at n=%v", n)
		}
		prev1, prev2 = f1, f2
	}
}

func TestFeasibleWindow(t *testing.T) {
	d := stats.D(0.05)
	// λ = 0.19·... : n=500000, p=3/1024 → λ=0.537: feasible for (.05,.05).
	if !Feasible(500000, 3, 3.0/1024, 8192, 0.05, d) {
		t.Fatal("expected feasible point rejected")
	}
	// Tiny λ: far too little signal.
	if Feasible(100, 3, 1.0/1024, 8192, 0.05, d) {
		t.Fatal("infeasible point accepted (tiny lambda)")
	}
	// Huge λ: vector nearly all busy.
	if Feasible(5e7, 3, 1023.0/1024, 8192, 0.05, d) {
		t.Fatal("infeasible point accepted (huge lambda)")
	}
	if Feasible(-5, 3, 0.5, 8192, 0.05, d) || Feasible(100, 3, 0, 8192, 0.05, d) {
		t.Fatal("degenerate inputs accepted")
	}
}

func TestOptimalPnMinimality(t *testing.T) {
	d := stats.D(0.05)
	for _, nLow := range []float64{1000, 25000, 250000, 2.5e6} {
		pn, ok := OptimalPn(nLow, 3, 8192, 1024, 0.05, 0.05)
		if !ok {
			t.Fatalf("no feasible pn at nLow=%v", nLow)
		}
		if !Feasible(nLow, 3, float64(pn)/1024, 8192, 0.05, d) {
			t.Fatalf("returned pn=%d not feasible at nLow=%v", pn, nLow)
		}
		for smaller := 1; smaller < pn; smaller++ {
			if Feasible(nLow, 3, float64(smaller)/1024, 8192, 0.05, d) {
				t.Fatalf("pn=%d not minimal at nLow=%v (pn=%d feasible)", pn, nLow, smaller)
			}
		}
	}
}

func TestOptimalPnTheorem4Transfer(t *testing.T) {
	// Theorem 4: feasibility at n̂_low transfers to any n ≥ n̂_low within
	// the monotone region. Check across the ratio n/n̂_low ∈ [1, 3] that
	// BFCE's c = 0.5 design actually exercises.
	d := stats.D(0.05)
	for _, nLow := range []float64{5000, 50000, 500000} {
		pn, ok := OptimalPn(nLow, 3, 8192, 1024, 0.05, 0.05)
		if !ok {
			t.Fatalf("no feasible pn at nLow=%v", nLow)
		}
		p := float64(pn) / 1024
		for ratio := 1.0; ratio <= 3.0; ratio += 0.25 {
			if !Feasible(nLow*ratio, 3, p, 8192, 0.05, d) {
				t.Fatalf("feasibility lost at n=%v·%v with pn=%d", nLow, ratio, pn)
			}
		}
	}
}

func TestOptimalPnInfeasible(t *testing.T) {
	// Below the accuracy floor no numerator works.
	if _, ok := OptimalPn(50, 3, 8192, 1024, 0.05, 0.05); ok {
		t.Fatal("nLow=50 must be infeasible at (0.05, 0.05)")
	}
	// Beyond the ceiling neither.
	if _, ok := OptimalPn(5e8, 3, 8192, 1024, 0.05, 0.05); ok {
		t.Fatal("nLow=5e8 must be infeasible")
	}
}

// optimalPnLinear is OptimalPn as §IV-D states it: scan every numerator
// from 1 up. It is the oracle for OptimalPn, which starts the same scan
// at its proven lower bound.
func optimalPnLinear(nLow float64, k, w, pdenom int, eps, delta float64) (pn int, ok bool) {
	d := stats.D(delta)
	for pn = 1; pn < pdenom; pn++ {
		if Feasible(nLow, k, float64(pn)/float64(pdenom), w, eps, d) {
			return pn, true
		}
	}
	return 0, false
}

// TestOptimalPnMatchesLinearScan checks that starting the scan at the
// F1 bound never changes p_o: 10⁵ rough lower bounds, log-uniform over
// [1, 10⁹], spread over k ∈ {1, 3, 4}, w ∈ {1024, 8192} and every
// accuracy the registry, the benchmark and the tests run, and the
// degenerate bounds 0, −1, the smallest subnormal, NaN and +Inf.
func TestOptimalPnMatchesLinearScan(t *testing.T) {
	accuracies := [][2]float64{
		{0.01, 0.01}, {0.05, 0.05}, {0.05, 0.1}, {0.05, 0.15}, {0.05, 0.2},
		{0.05, 0.25}, {0.05, 0.3}, {0.1, 0.05}, {0.1, 0.1}, {0.15, 0.05},
		{0.2, 0.05}, {0.2, 0.1}, {0.2, 0.2}, {0.25, 0.05}, {0.3, 0.05},
		{0.3, 0.3},
	}
	type geometry struct{ k, w int }
	var geometries []geometry
	for _, k := range []int{1, 3, 4} {
		for _, w := range []int{1024, 8192} {
			geometries = append(geometries, geometry{k, w})
		}
	}
	check := func(nLow float64, g geometry, acc [2]float64) {
		t.Helper()
		gotPn, gotOK := OptimalPn(nLow, g.k, g.w, 1024, acc[0], acc[1])
		wantPn, wantOK := optimalPnLinear(nLow, g.k, g.w, 1024, acc[0], acc[1])
		if gotPn != wantPn || gotOK != wantOK {
			t.Fatalf("OptimalPn(%v, k=%d, w=%d, %v) = (%d, %v), linear scan (%d, %v)",
				nLow, g.k, g.w, acc, gotPn, gotOK, wantPn, wantOK)
		}
	}
	for _, g := range geometries {
		for _, acc := range accuracies {
			for _, nLow := range []float64{0, -1, 5e-324, math.NaN(), math.Inf(1)} {
				check(nLow, g, acc)
			}
		}
	}
	rng := xrand.New(0x0b7)
	for i := 0; i < 100000; i++ {
		nLow := math.Pow(10, 9*rng.Float64())
		check(nLow, geometries[i%len(geometries)], accuracies[(i/len(geometries))%len(accuracies)])
	}
}

func TestFallbackPnTargetsLambdaStar(t *testing.T) {
	pn := FallbackPn(5e6, 3, 8192, 1024)
	lambda := Lambda(5e6, 3, float64(pn)/1024, 8192)
	if math.Abs(lambda-LambdaStar) > LambdaStar {
		t.Fatalf("fallback lambda %v too far from %v", lambda, LambdaStar)
	}
	if FallbackPn(0, 3, 8192, 1024) != 1023 {
		t.Fatal("fallback for nLow=0 must be the max numerator")
	}
	if FallbackPn(10, 3, 8192, 1024) != 1023 {
		t.Fatal("fallback must clamp to max numerator for tiny nLow")
	}
	if FallbackPn(1e12, 3, 8192, 1024) != 1 {
		t.Fatal("fallback must clamp to 1 for huge nLow")
	}
}

func TestLambdaStarRoot(t *testing.T) {
	// λ* solves λe^λ = 2(e^λ - 1).
	l := LambdaStar
	if math.Abs(l*math.Exp(l)-2*(math.Exp(l)-1)) > 1e-9 {
		t.Fatal("LambdaStar is not the variance-minimizing root")
	}
}

func TestGammaBoundsMatchPaper(t *testing.T) {
	// §IV-B: 0.000326 ≤ γ ≤ 2365.9 for k=3 over the /1024 grid.
	min, max := GammaBounds(3, 1024)
	if math.Abs(min-0.000326) > 0.00002 {
		t.Fatalf("gamma min = %v, paper says 0.000326", min)
	}
	if math.Abs(max-2365.9) > 1.0 {
		t.Fatalf("gamma max = %v, paper says 2365.9", max)
	}
}

func TestMaxCardinalityExceeds19M(t *testing.T) {
	// §IV-B: "the maximum cardinality that the estimator can estimate
	// exceeds 19 millions" at w = 8192.
	if got := MaxCardinality(3, 8192, 1024); got < 19e6 {
		t.Fatalf("max cardinality %v, want > 19e6", got)
	}
}

func TestGammaMonotone(t *testing.T) {
	// γ decreases in ρ and in p.
	if !(Gamma(0.2, 0.5, 3) > Gamma(0.4, 0.5, 3)) {
		t.Fatal("gamma must decrease in rho")
	}
	if !(Gamma(0.2, 0.5, 3) > Gamma(0.2, 0.9, 3)) {
		t.Fatal("gamma must decrease in p")
	}
}
