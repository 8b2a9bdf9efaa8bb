// Package estimators implements the comparison and related-work RFID
// cardinality estimators surrounding BFCE:
//
//   - ZOE  [14] and SRC [15] — the state-of-the-art comparators of §V,
//   - LOF  [19] — the lottery-frame estimator, also ZOE's rough phase,
//   - UPE [17], EZB [18], FNEB [20], MLE [21], ART [23], PET [13] — the
//     related-work estimators of §II, used by the extension benches.
//
// All estimators speak the same channel vocabulary (channel.Reader) and are
// charged for every broadcast bit and sensed slot, so their Result.Seconds
// values are directly comparable — this is exactly the paper's argument:
// slot counts alone hide the reader→tag broadcast cost that dominates ZOE.
package estimators

import (
	"errors"
	"math"

	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// Accuracy is an (ε, δ) estimation requirement: the estimate n̂ must
// satisfy P(|n̂ − n| ≤ ε·n) ≥ 1 − δ.
type Accuracy struct {
	Epsilon float64
	Delta   float64
}

// Default is the (0.05, 0.05) requirement used for most of the paper's
// evaluation.
var Default = Accuracy{Epsilon: 0.05, Delta: 0.05}

// Validate panics if the accuracy requirement is degenerate. NaN and ±Inf
// parameters fail the positively-phrased range check along with
// out-of-range values.
func (a Accuracy) Validate() {
	if !stats.InUnitInterval(a.Epsilon) || !stats.InUnitInterval(a.Delta) {
		panic("estimators: accuracy parameters must be in (0, 1)")
	}
}

// ErrSlotLimit is the sentinel wrapped when an (ε, δ) target would size an
// accurate phase past maxSizedSlots. The target is in range, but no frame
// that large can be allocated, so callers that map errors onto a protocol
// response (the serving layer's 400) treat it as a bad request.
var ErrSlotLimit = errors.New("accuracy target needs more than 2^24 slots")

// maxSizedSlots bounds the slot counts ZOE and SRC derive from (ε, δ). It
// admits every target in the paper's range and this repository's
// experiments — SRC at ε = 0.001 sizes 7.7M slots — while refusing the ones
// whose sizes no longer fit an allocation, or an int.
const maxSizedSlots = 1 << 24

// Result is the outcome of one estimation run.
type Result struct {
	Estimate float64     // n̂
	Rounds   int         // protocol rounds / repeated phases executed
	Slots    int         // tag→reader slots sensed (protocol's own unit)
	Cost     timing.Cost // full communication counters
	Seconds  float64     // air time under the session profile
	Guarded  bool        // the (ε, δ) guarantee machinery was in effect
	// Saturated reports that a phase observed a degenerate all-idle or
	// all-busy vector and the estimate is a clamp artifact, not a
	// measurement. Only BFCE distinguishes saturation; other protocols
	// leave it false.
	Saturated bool
}

// Estimator is a cardinality estimation protocol. Estimate runs one over
// a session.
type Estimator interface {
	// Name returns the protocol's short name (as used in the paper).
	Name() string
	// Stepper returns a fresh round machine for one run at the accuracy
	// target. It panics on a degenerate accuracy and errors on a target
	// the protocol cannot size.
	Stepper(acc Accuracy) (Stepper, error)
}

// sizeRounds rounds a protocol's required round count up and clamps it to
// [1, maxRounds].
func sizeRounds(need float64, maxRounds int) int {
	return min(max(int(math.Ceil(need)), 1), maxRounds)
}

// frameRounds sizes a phase of f-slot frames at per-slot load lambda so
// the pooled zero-estimator variance meets (ε, δ), times inflation for a
// statistic that carries less information per slot:
// ⌈inflation·d²·(e^λ−1)/(ε²·λ²·f)⌉ rounds, clamped to [1, maxRounds].
func frameRounds(acc Accuracy, inflation, lambda float64, f, maxRounds int) int {
	d := stats.D(acc.Delta)
	need := inflation * d * d * (math.Exp(lambda) - 1) /
		(acc.Epsilon * acc.Epsilon * lambda * lambda * float64(f))
	return sizeRounds(need, maxRounds)
}

// clampRho keeps an observed idle fraction away from the degenerate 0 and 1
// (at the resolution of m observations) so log-inversion stays finite.
func clampRho(rho float64, m int) float64 {
	lo := 0.5 / float64(m)
	if rho < lo {
		return lo
	}
	if rho > 1-lo {
		return 1 - lo
	}
	return rho
}

// zeroEstimate inverts the zero-estimator relation ρ̄ = e^{-n·p/w} for a
// uniform single-hash frame: n̂ = -w·ln(ρ̄)/p.
func zeroEstimate(rho float64, p float64, w int) float64 {
	return -float64(w) * math.Log(rho) / p
}

// fmPhi is the Flajolet–Martin bias constant: the first idle slot R of a
// geometric lottery frame satisfies E[R] ≈ log2(φ·n) with φ ≈ 0.77351,
// giving n̂ = 2^R / φ.
const fmPhi = 0.77351
