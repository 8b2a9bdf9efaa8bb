package estimators

import (
	"fmt"
	"math"

	"rfidest/internal/stats"
)

// SRC is the Simple RFID Counting protocol of Chen, Zhou and Yu [15]: a
// rough phase that brackets n within a constant factor, then a
// balls-and-bins accurate phase whose frame size is Θ(1/ε²), repeated and
// median-combined to drive the error probability down to δ.
//
// Accurate phase, per round: the reader announces a frame of l slots and a
// persistence probability p = λ*·l/n̂_rough, tags hash uniformly into the
// frame, and the zero estimator inverts the idle fraction. The frame is
// sized with Chebyshev so a single round is (ε, 0.2)-accurate:
//
//	P(|n̂−n| > εn) ≤ Var(n̂)/(εn)² = (e^{λ*}−1)/(l·λ*²·ε²) ≤ 0.2
//	⇒ l = ⌈(e^{λ*}−1)/(0.2·λ*²·ε²)⌉ ≈ ⌈7.72/ε²⌉.
//
// For δ < 0.2 the phase is repeated m times and the median taken, where m
// is the smallest odd integer with Σ_{i=(m+1)/2}^m C(m,i)·0.8^i·0.2^{m−i}
// ≥ 1−δ — exactly the repetition rule §V-C states.
//
// The rough phase is a single LOF round: constant-factor bracketing, as in
// SRC's own first phase.
type SRC struct{}

// NewSRC returns SRC configured as in the paper's comparison.
func NewSRC() *SRC { return &SRC{} }

// Name implements Estimator.
func (s *SRC) Name() string { return "SRC" }

// SRCFrameSize returns the accurate-phase frame length l for a confidence
// interval ε (single-round success probability 0.8 via Chebyshev). An ε
// below about 6.8e-4 needs a frame of more than 2^24 slots and fails with
// an error wrapping ErrSlotLimit.
func SRCFrameSize(eps float64) (int, error) {
	l := math.Ceil((math.Exp(lambdaStarZOE) - 1) /
		(0.2 * lambdaStarZOE * lambdaStarZOE * eps * eps))
	if !(l <= maxSizedSlots) { // phrased so NaN fails too
		return 0, fmt.Errorf("estimators: SRC at ε = %g needs %.3g slots per frame: %w",
			eps, l, ErrSlotLimit)
	}
	return int(l), nil
}

// SRCRounds returns the number of accurate-phase repetitions for δ, at
// most 99.
func SRCRounds(delta float64) int {
	if delta >= 0.2 {
		return 1
	}
	return stats.MajorityRounds(0.8, delta, 99)
}
