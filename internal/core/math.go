// Package core implements BFCE, the Bloom Filter based Cardinality
// Estimator of Li, He and Liu (ICPP 2015) — the paper's primary
// contribution.
//
// BFCE estimates the number n of tags in one round of two phases, using a
// constant 1024 + 8192 bit-slots. Tags build a w-bit Bloom vector B in a
// distributed fashion: each tag selects k slots with seeded hashes and
// responds in each selected slot with persistence probability p. The reader
// senses the channel; with B(i) = 1 for an idle slot, Theorem 1 gives
// P(B(i)=1) = e^{-λ} with λ = k·p·n/w, so the idle fraction ρ̄ yields
//
//	n̂ = -w·ln(ρ̄) / (k·p)                                (Theorem 2)
//
// The first (rough) phase finds a lower bound n̂_low = c·n̂_r; the second
// phase picks the minimal persistence p_o for which Theorem 3's feasibility
// conditions hold at n̂_low, which guarantees the final ρ̄ lands inside the
// (ε, δ) window at the true n (Theorem 4).
//
// This file holds the pure math of §IV; bfce.go drives the protocol.
package core

import (
	"math"

	"rfidest/internal/stats"
)

// Lambda returns λ = k·p·n/w, the expected per-slot load of the Bloom
// frame (Theorem 1).
func Lambda(n float64, k int, p float64, w int) float64 {
	return float64(k) * p * n / float64(w)
}

// RhoExpected returns E[ρ̄] = e^{-λ}, the expected idle fraction.
func RhoExpected(n float64, k int, p float64, w int) float64 {
	return math.Exp(-Lambda(n, k, p, w))
}

// SigmaX returns σ(X) = sqrt(e^{-λ}(1−e^{-λ})), the standard deviation of
// one slot's Bernoulli observation (Theorem 1).
func SigmaX(lambda float64) float64 {
	el := math.Exp(-lambda)
	return math.Sqrt(el * (1 - el))
}

// EstimateFromRho inverts Theorem 1: n̂ = -w·ln(ρ̄)/(k·p) (Equation 3).
// It returns +Inf for ρ̄ = 0 and 0 for ρ̄ = 1; callers must avoid feeding
// the two degenerate vectors (§IV-B calls them "the two exceptions").
func EstimateFromRho(rho float64, k int, p float64, w int) float64 {
	return -float64(w) * math.Log(rho) / (float64(k) * p)
}

// F1 is the left feasibility statistic of Theorem 3,
//
//	f1 = (e^{-λ(1+ε)} − e^{-λ}) / (σ(X)/√w),
//
// evaluated at cardinality n. It is ≤ 0 and monotonically decreasing in n
// while λ is small (Fig. 5).
func F1(n float64, k int, p float64, w int, eps float64) float64 {
	lambda := Lambda(n, k, p, w)
	return (math.Exp(-lambda*(1+eps)) - math.Exp(-lambda)) /
		(SigmaX(lambda) / math.Sqrt(float64(w)))
}

// F2 is the right feasibility statistic of Theorem 3,
//
//	f2 = (e^{-λ(1−ε)} − e^{-λ}) / (σ(X)/√w),
//
// ≥ 0 and monotonically increasing in n while λ is small (Fig. 5).
func F2(n float64, k int, p float64, w int, eps float64) float64 {
	lambda := Lambda(n, k, p, w)
	return (math.Exp(-lambda*(1-eps)) - math.Exp(-lambda)) /
		(SigmaX(lambda) / math.Sqrt(float64(w)))
}

// Feasible reports whether persistence p meets Theorem 3 at cardinality n:
// f1 ≤ −d and f2 ≥ d, where d = √2·erfinv(1−δ).
func Feasible(n float64, k int, p float64, w int, eps, d float64) bool {
	if n <= 0 || p <= 0 {
		return false
	}
	return F1(n, k, p, w, eps) <= -d && F2(n, k, p, w, eps) >= d
}

// OptimalPn brute-forces the minimal numerator pn ∈ [1, pdenom−1] such that
// p = pn/pdenom satisfies Theorem 3 at the rough lower bound nLow (§IV-D:
// "we get the approximate optimal p_o via brute-force calculation ... We
// take the minimal p_o that satisfies Equation 9"). ok is false when no
// numerator is feasible, which happens when nLow is below the protocol's
// accuracy floor (λ cannot reach the feasible window even at p close to 1)
// or beyond its scalability ceiling (λ overshoots it even at p = 1/pdenom).
//
// The scan starts where feasibility can begin. F1 = −√w·(1−e^{−ελ})/
// √(e^λ−1), and since 1−e^{−x} ≤ x and e^λ−1 ≥ λ, |F1| ≤ ε·√(wλ): no λ
// below d²/(ε²w) meets f1 ≤ −d. Every numerator under that load,
// λ = k·(pn/pdenom)·nLow/w, is infeasible, so skipping them returns the
// same minimal p_o as scanning from 1. The start is shaded down by 10⁻⁹,
// orders of magnitude above F1's rounding error there, and the two
// inequalities leave more slack still, so rounding cannot skip a
// numerator the scan would accept.
//
// The scan ends early past the scalability ceiling by the same bound:
// with 1−e^{−x} ≤ x alone, |F1| ≤ ε·√w·λ/√(e^λ−1), whose log-derivative
// 1/λ − e^λ/(2(e^λ−1)) is zero where λe^λ = 2(e^λ−1), at LambdaStar, and
// negative past it. So once a numerator's λ is at least LambdaStar and
// that bound is below d·(1−10⁻⁹), every larger numerator has a larger λ
// and an |F1| below d, and none is feasible. The check runs only from
// LambdaStar's numerator on, so a scan that finds p_o below it costs what
// it did without the check.
func OptimalPn(nLow float64, k, w, pdenom int, eps, delta float64) (pn int, ok bool) {
	d := stats.D(delta)
	pn = 1
	peak := pdenom // the first numerator whose load at nLow may reach LambdaStar
	if nLow > 0 {
		lambdaMin := d * d / (eps * eps * float64(w))
		start := math.Floor(lambdaMin * (1 - 1e-9) * float64(w) * float64(pdenom) / (float64(k) * nLow))
		if start >= float64(pdenom) {
			return 0, false
		}
		if start > 1 {
			pn = int(start)
		}
		if at := math.Floor(LambdaStar * float64(w) * float64(pdenom) / (float64(k) * nLow)); at < float64(pdenom) {
			peak = int(at)
		}
	}
	for ; pn < peak; pn++ {
		if Feasible(nLow, k, float64(pn)/float64(pdenom), w, eps, d) {
			return pn, true
		}
	}
	for ; pn < pdenom; pn++ {
		p := float64(pn) / float64(pdenom)
		if Feasible(nLow, k, p, w, eps, d) {
			return pn, true
		}
		if pastCeiling(Lambda(nLow, k, p, w), w, eps, d) {
			return 0, false
		}
	}
	return 0, false
}

// pastCeiling reports whether no load from lambda up can meet f1 ≤ −d:
// lambda is at least LambdaStar, where ε·√w·λ/√(e^λ−1), the bound on
// |F1| that OptimalPn's scan ends by, starts to fall, and that bound is
// already below d·(1−10⁻⁹).
func pastCeiling(lambda float64, w int, eps, d float64) bool {
	return lambda >= LambdaStar && eps*math.Sqrt(float64(w))*lambda/math.Sqrt(math.Expm1(lambda)) < d*(1-1e-9)
}

// FallbackPn returns the numerator whose λ at nLow is closest to
// LambdaStar, the variance-minimizing per-slot load of the zero estimator.
// BFCE uses it when OptimalPn finds no feasible numerator: the estimate is
// then best-effort rather than (ε, δ)-guaranteed.
func FallbackPn(nLow float64, k, w, pdenom int) int {
	if nLow <= 0 {
		return pdenom - 1
	}
	target := LambdaStar * float64(w) / (float64(k) * nLow) * float64(pdenom)
	pn := int(math.Round(target))
	if pn < 1 {
		pn = 1
	}
	if pn > pdenom-1 {
		pn = pdenom - 1
	}
	return pn
}

// LambdaStar is the per-slot load minimizing the variance of the zero
// estimator: the root of λe^λ = 2(e^λ − 1), ≈ 1.5936.
const LambdaStar = 1.5936242600400401

// Gamma is γ = −ln(ρ̄)/(k·p), the per-w-slot estimation factor of §IV-B:
// n̂ = γ·w.
func Gamma(rho, p float64, k int) float64 {
	return -math.Log(rho) / (float64(k) * p)
}

// GammaBounds evaluates γ over the grid p, ρ̄ ∈ {1/pdenom, …,
// (pdenom−1)/pdenom} and returns its extrema. With k = 3 and pdenom = 1024
// this reproduces Fig. 4's range 0.000326 ≤ γ ≤ 2365.9, bounding the
// cardinalities a w-slot vector can express: 0.000326·w ≤ n̂ ≤ 2365.9·w.
func GammaBounds(k, pdenom int) (min, max float64) {
	min = math.Inf(1)
	max = math.Inf(-1)
	for i := 1; i < pdenom; i++ {
		p := float64(i) / float64(pdenom)
		for j := 1; j < pdenom; j++ {
			rho := float64(j) / float64(pdenom)
			g := Gamma(rho, p, k)
			if g < min {
				min = g
			}
			if g > max {
				max = g
			}
		}
	}
	return min, max
}

// MaxCardinality returns the largest cardinality a w-slot BFCE vector can
// express, γ_max·w (§IV-B: "the maximum cardinality that the estimator can
// estimate exceeds 19 millions" for w = 8192).
func MaxCardinality(k, w, pdenom int) float64 {
	_, gmax := GammaBounds(k, pdenom)
	return gmax * float64(w)
}
