package estimators

import "rfidest/internal/channel"

// LOF is the Lottery Frame estimator of Qian et al. [19]: every tag hashes
// itself into a frame with geometrically decaying slot probabilities
// (slot j with probability 2^{-(j+1)}), and the position R of the first
// idle slot estimates log2(φ·n). Averaging R over multiple rounds and
// inverting gives n̂ = 2^{R̄}/φ.
//
// LOF converges quickly to a constant-factor estimate but needs many rounds
// for tight ε — which is why seven other protocols use it only as a rough
// first phase. The paper invokes LOF with 10 rounds as ZOE's rough
// estimator (§V-C), and so does this LOF: 10 averaged 32-slot frames.
// Accuracy.Epsilon/Delta are not used to size LOF: it is a fixed-budget
// rough estimator.
type LOF struct{}

// NewLOF returns a LOF estimator with the paper's settings (32-slot frames,
// 10 rounds).
func NewLOF() *LOF { return &LOF{} }

// Name implements Estimator.
func (l *LOF) Name() string { return "LOF" }

// Estimate implements Estimator.
func (l *LOF) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(l, r, acc)
}
