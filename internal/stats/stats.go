// Package stats provides the statistical substrate for the estimator
// library: streaming moments, quantiles, histograms, the two-sample
// Kolmogorov–Smirnov test, the normal-quantile constant
// d = √2·erfinv(1−δ) that BFCE's feasibility test uses (Theorem 3), and
// the binomial tail that sizes SRC's round count.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford is a streaming mean/variance accumulator (Welford's algorithm),
// numerically stable for long runs. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add feeds one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 if empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 if empty).
func (w *Welford) Max() float64 { return w.max }

// Summary is a compact five-number-plus summary of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, P25, P50, P75 float64
	P90, P95, P99, Max float64
}

// Summarize computes a Summary of xs. It does not modify xs.
func Summarize(xs []float64) Summary {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	s := Summary{N: w.N(), Mean: w.Mean(), Std: w.Std(), Min: w.Min(), Max: w.Max()}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P25 = Quantile(sorted, 0.25)
	s.P50 = Quantile(sorted, 0.50)
	s.P75 = Quantile(sorted, 0.75)
	s.P90 = Quantile(sorted, 0.90)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.6g min=%.6g p50=%.6g p95=%.6g max=%.6g",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P95, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice using linear interpolation between order statistics. It panics on
// an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// InUnitInterval reports whether x lies strictly inside (0, 1) — the
// domain of the (ε, δ) accuracy parameters and of BFCE's lower-bound
// coefficient. It is the one NaN-proof domain check behind every accuracy
// validation in the module: the comparisons are phrased positively, so NaN
// (for which both x <= 0 and x >= 1 are false) fails instead of slipping
// through a negated range check, and ±Inf fail with it.
func InUnitInterval(x float64) bool { return x > 0 && x < 1 }

// InClosedUnitInterval reports whether x lies in [0, 1] — the domain of
// probabilities and rates (channel error rates, fault-injection rates).
// Like InUnitInterval it rejects NaN and ±Inf by construction.
func InClosedUnitInterval(x float64) bool { return x >= 0 && x <= 1 }

// Median returns the median of xs (copies and sorts internally).
func Median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Quantile(sorted, 0.5)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram bins a sample into nbins equal-width bins over [lo, hi].
// Values outside the range are clamped into the edge bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram builds a histogram of xs. It panics if hi <= lo or nbins <= 0.
func NewHistogram(xs []float64, lo, hi float64, nbins int) *Histogram {
	if hi <= lo || nbins <= 0 {
		panic("stats: invalid histogram parameters")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	width := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

// Fraction returns the fraction of the sample in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}
