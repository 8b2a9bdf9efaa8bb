package stats

import "math"

// D returns the constant d of BFCE Theorem 3: the half-width, in standard
// normal units, of a symmetric interval with mass 1−δ:
//
//	d = √2 · erfinv(1 − δ),  so that  P(−d ≤ Y ≤ d) = 1 − δ
//
// for a standard normal Y. D panics if δ is outside (0, 1).
func D(delta float64) float64 {
	if delta <= 0 || delta >= 1 {
		panic("stats: D requires delta in (0, 1)")
	}
	return math.Sqrt2 * math.Erfinv(1-delta)
}

// BinomialTail returns P(X >= k) for X ~ Binomial(m, p), computed by
// summing exact terms in log space. It is used to size SRC's round count:
// the smallest odd m with BinomialTail(m, (m+1)/2, 0.8) >= 1−δ.
func BinomialTail(m, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > m {
		return 0
	}
	total := 0.0
	lp := math.Log(p)
	lq := math.Log1p(-p)
	for i := k; i <= m; i++ {
		lc := lchoose(m, i)
		total += math.Exp(lc + float64(i)*lp + float64(m-i)*lq)
	}
	if total > 1 {
		total = 1
	}
	return total
}

func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// MajorityRounds returns the smallest odd m such that a majority of m
// independent trials, each succeeding with probability p, succeeds with
// probability at least 1−δ:
//
//	Σ_{i=(m+1)/2}^{m} C(m,i)·p^i·(1−p)^{m−i} ≥ 1−δ
//
// This is exactly the expression BFCE §V-C uses to size SRC's repetition of
// its second phase (with p = 0.8). maxM bounds the search; MajorityRounds
// returns maxM (rounded up to odd) if no smaller m suffices.
func MajorityRounds(p, delta float64, maxM int) int {
	for m := 1; m <= maxM; m += 2 {
		if BinomialTail(m, (m+1)/2, p) >= 1-delta {
			return m
		}
	}
	if maxM%2 == 0 {
		maxM++
	}
	return maxM
}

// RelError returns the paper's accuracy metric |n̂ − n| / n (§V-A).
// It panics if n <= 0.
func RelError(nhat, n float64) float64 {
	if n <= 0 {
		panic("stats: RelError with non-positive n")
	}
	return math.Abs(nhat-n) / n
}
