package stats

import (
	"math"
	"testing"
)

func TestDKnownValues(t *testing.T) {
	// d(0.05) is the familiar 1.95996..., d(0.3173) ~ 1.
	cases := []struct{ delta, want, tol float64 }{
		{0.05, 1.959964, 1e-4},
		{0.01, 2.575829, 1e-4},
		{0.10, 1.644854, 1e-4},
		{0.3173, 1.0, 1e-3},
	}
	for _, c := range cases {
		if got := D(c.delta); math.Abs(got-c.want) > c.tol {
			t.Fatalf("D(%v) = %v, want %v", c.delta, got, c.want)
		}
	}
}

func TestDPanics(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("D(%v) did not panic", bad)
				}
			}()
			D(bad)
		}()
	}
}

func TestDConsistentWithQuantile(t *testing.T) {
	// d(δ) must be the (1-δ/2) normal quantile: P(−d ≤ Y ≤ d) =
	// erf(d/√2) = 1−δ.
	for _, delta := range []float64{0.05, 0.1, 0.2, 0.3} {
		if mass := math.Erf(D(delta) / math.Sqrt2); math.Abs(mass-(1-delta)) > 1e-9 {
			t.Fatalf("D(%v) encloses mass %v, want %v", delta, mass, 1-delta)
		}
	}
}

func TestBinomialTailExact(t *testing.T) {
	// Binomial(3, 0.8): P(X>=2) = 3·0.64·0.2 + 0.512 = 0.896.
	if got := BinomialTail(3, 2, 0.8); math.Abs(got-0.896) > 1e-12 {
		t.Fatalf("BinomialTail(3,2,0.8) = %v", got)
	}
	// P(X>=0) = 1, P(X>m) = 0.
	if BinomialTail(5, 0, 0.3) != 1 {
		t.Fatal("tail at 0 must be 1")
	}
	if BinomialTail(5, 6, 0.3) != 0 {
		t.Fatal("tail beyond m must be 0")
	}
}

func TestBinomialTailMonotone(t *testing.T) {
	prev := 1.0
	for k := 0; k <= 20; k++ {
		v := BinomialTail(20, k, 0.7)
		if v > prev+1e-12 {
			t.Fatalf("tail not monotone at k=%d", k)
		}
		prev = v
	}
}

func TestMajorityRoundsPaperFormula(t *testing.T) {
	// With per-round success 0.8 (the SRC constant):
	// m=1: 0.8; m=3: 0.896; m=5: 0.94208; m=7: 0.966656 — so δ=0.05 → 7.
	cases := []struct {
		delta float64
		want  int
	}{
		{0.25, 1},
		{0.15, 3},
		{0.06, 5},
		{0.05, 7},
		{0.01, 13},
	}
	for _, c := range cases {
		if got := MajorityRounds(0.8, c.delta, 99); got != c.want {
			t.Fatalf("MajorityRounds(0.8, %v) = %d, want %d", c.delta, got, c.want)
		}
	}
}

func TestMajorityRoundsCaps(t *testing.T) {
	if got := MajorityRounds(0.51, 1e-12, 9); got != 9 {
		t.Fatalf("capped rounds = %d, want 9", got)
	}
	if got := MajorityRounds(0.51, 1e-12, 8); got != 9 {
		t.Fatalf("even cap must round up to odd, got %d", got)
	}
}

func TestRelError(t *testing.T) {
	if RelError(110, 100) != 0.1 {
		t.Fatal("RelError(110,100) != 0.1")
	}
	if RelError(90, 100) != 0.1 {
		t.Fatal("RelError(90,100) != 0.1")
	}
	if RelError(100, 100) != 0 {
		t.Fatal("RelError(100,100) != 0")
	}
}

func TestRelErrorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RelError with n=0 did not panic")
		}
	}()
	RelError(1, 0)
}
