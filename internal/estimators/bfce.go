package estimators

import (
	"rfidest/internal/channel"
	"rfidest/internal/core"
)

// BFCE adapts the paper's estimator (internal/core) to the comparison
// interface, so the bake-off harness can run it side by side with ZOE, SRC
// and the related work. The (ε, δ) requirement of each call overrides the
// base configuration's.
type BFCE struct {
	// Config is the base configuration; zero fields take the paper
	// defaults.
	Config core.Config
}

// NewBFCE returns the adapter with the paper's default configuration.
func NewBFCE() *BFCE { return &BFCE{} }

// Name implements Estimator.
func (b *BFCE) Name() string { return "BFCE" }

// Estimate implements Estimator.
func (b *BFCE) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(b, r, acc)
}
