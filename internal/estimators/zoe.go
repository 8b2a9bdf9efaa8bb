package estimators

import (
	"fmt"
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/stats"
)

// ZOE is the Zero-One Estimator of Zheng and Li [14], as configured in the
// paper's comparison (§V-C): a rough phase (LOF run for 10 rounds) followed
// by m single-slot frames.
//
// In the accurate phase each frame is exactly one bit-slot: the reader
// broadcasts a fresh 32-bit seed, every tag hashes (RN, seed) and responds
// with persistence probability p = λ*/n̂_rough, and the reader senses one
// slot. The idle fraction ρ̄ over the m slots estimates e^{-p·n}, so
// n̂ = −ln(ρ̄)/p.
//
// The slot count m is ZOE's published sizing, quoted in §I of the BFCE
// paper: the estimate meets (ε, δ) when d·σ(ρ̄) fits inside the ε-interval
// in ρ-space, with σ(X) conservatively bounded by σ(x)max = 0.5:
//
//	m = ⌈( d·σ(x)max / (e^{-λ*}·(1−e^{-ε·λ*})) )²⌉,  d = √2·erfinv(1−δ)
//
// (the paper's expression has e^{ελ} with a sign typo; the interval edge is
// e^{-λ}−e^{-λ(1+ε)} = e^{-λ}(1−e^{-ελ})). Because every slot carries
// its own 32-bit seed broadcast, ZOE's execution time is dominated by
// reader→tag traffic (m × 1510 µs) — the observation that motivates BFCE.
type ZOE struct {
	// MaxSlots caps the accurate phase (guards against a rough estimate
	// so bad the formula explodes). Default 65536.
	MaxSlots int
}

// NewZOE returns ZOE configured as in the paper's comparison.
func NewZOE() *ZOE { return &ZOE{} }

// Name implements Estimator.
func (z *ZOE) Name() string { return "ZOE" }

// lambdaStarZOE is the variance-minimizing per-slot load of the zero
// estimator (root of λe^λ = 2(e^λ−1)).
const lambdaStarZOE = 1.5936242600400401

// ZOESlots returns the accurate-phase slot count m for an (ε, δ) target,
// using ZOE's conservative σ(x)max = 0.5 bound at the design load λ*. A
// target that needs more than 2^24 slots fails with an error wrapping
// ErrSlotLimit.
func ZOESlots(acc Accuracy) (int, error) {
	m := zoeSlots(acc)
	if !(m <= maxSizedSlots) { // phrased so NaN fails too
		return 0, fmt.Errorf("estimators: ZOE at (ε, δ) = (%g, %g) needs %.3g slots: %w",
			acc.Epsilon, acc.Delta, m, ErrSlotLimit)
	}
	return int(m), nil
}

// zoeSlots is ZOESlots in float. It overflows int for in-range targets: a
// δ below about 1e-16 rounds 1−δ to 1, so d = +Inf, and a tiny ε shrinks
// the interval edge toward zero.
func zoeSlots(acc Accuracy) float64 {
	acc.Validate()
	d := stats.D(acc.Delta)
	const sigmaMax = 0.5
	edge := math.Exp(-lambdaStarZOE) * (1 - math.Exp(-acc.Epsilon*lambdaStarZOE))
	root := d * sigmaMax / edge
	return math.Ceil(root * root)
}

// Estimate implements Estimator.
func (z *ZOE) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(z, r, acc)
}
