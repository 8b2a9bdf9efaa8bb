package estimators

// BFCE adapts the paper's estimator (internal/core) to the comparison
// interface, so the bake-off harness can run it side by side with ZOE, SRC
// and the related work. It runs the paper's configuration at each run's
// (ε, δ) target.
type BFCE struct{}

// NewBFCE returns the adapter.
func NewBFCE() *BFCE { return &BFCE{} }

// Name implements Estimator.
func (*BFCE) Name() string { return "BFCE" }
