package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Unbiased sample variance of this classic dataset is 32/7.
	if !almostEqual(w.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var = %v", w.Var())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Fatalf("single sample: mean=%v var=%v", w.Mean(), w.Var())
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum, sumSq := 0.0, 0.0
		for _, v := range raw {
			x := float64(v)
			w.Add(x)
			sum += x
			sumSq += x * x
		}
		n := float64(len(raw))
		mean := sum / n
		variance := (sumSq - n*mean*mean) / (n - 1)
		return almostEqual(w.Mean(), mean, 1e-9) && almostEqual(w.Var(), variance, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if !almostEqual(Quantile(xs, 0.5), 3, 1e-12) {
		t.Fatalf("median = %v", Quantile(xs, 0.5))
	}
	if !almostEqual(Quantile(xs, 0.25), 2, 1e-12) {
		t.Fatalf("q25 = %v", Quantile(xs, 0.25))
	}
	if !almostEqual(Quantile(xs, 0.1), 1.4, 1e-12) {
		t.Fatalf("q10 = %v", Quantile(xs, 0.1))
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile([]) did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestMedianEvenOdd(t *testing.T) {
	if !almostEqual(Median([]float64{3, 1, 2}), 2, 1e-12) {
		t.Fatal("odd median")
	}
	if !almostEqual(Median([]float64{4, 1, 3, 2}), 2.5, 1e-12) {
		t.Fatal("even median")
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Fatal("Mean wrong")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("summary basics wrong: %+v", s)
	}
	if !almostEqual(s.P50, 50, 1e-9) || !almostEqual(s.P95, 95, 1e-9) {
		t.Fatalf("quantiles wrong: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{-5, 0.1, 0.5, 0.9, 99}
	h := NewHistogram(xs, 0, 1, 10)
	if h.Total != 5 {
		t.Fatalf("Total = %d", h.Total)
	}
	if h.Counts[0] != 1 { // -5 clamped in... plus 0.1 lands in bin 1
		t.Fatalf("clamp low failed: %v", h.Counts)
	}
	if h.Counts[9] != 2 { // 0.9 in bin 9 and 99 clamped
		t.Fatalf("clamp high failed: %v", h.Counts)
	}
	if !almostEqual(h.Fraction(9), 0.4, 1e-12) {
		t.Fatalf("Fraction = %v", h.Fraction(9))
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(nil, 1, 1, 10)
}
