package core

import (
	"errors"
	"fmt"

	"rfidest/internal/channel"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// PDenom is the persistence-probability denominator: p is quantized to
// p_n/PDenom (paper: 2^10, §IV).
const PDenom = 1024

// The probe phase's fixed geometry (§IV).
const (
	probeWindow    = 32  // bit-slots observed per probe round
	maxProbeRounds = 768 // safety bound on probe adjustments
)

// Config carries BFCE's protocol parameters. DefaultConfig returns the
// paper's settings; zero-valued fields of a custom Config are filled with
// the defaults by Normalize.
type Config struct {
	W       int     // Bloom vector length (paper: 8192)
	K       int     // hash functions per tag (paper: 3)
	C       float64 // rough lower-bound coefficient (paper: 0.5, range [0.1, 0.9])
	Epsilon float64 // confidence interval ε of the (ε, δ) requirement
	Delta   float64 // error probability δ of the (ε, δ) requirement

	InitialPn  int // probe starting numerator (paper: 2^3)
	RoughSlots int // bit-slots observed in the rough phase (paper: 1024)
}

// DefaultConfig returns the configuration used throughout the paper:
// w = 8192, k = 3, c = 0.5, (ε, δ) = (0.05, 0.05), probe starting at
// 8/1024, rough phase cut at 1024 slots.
func DefaultConfig() Config {
	return Config{
		W:          8192,
		K:          3,
		C:          0.5,
		Epsilon:    0.05,
		Delta:      0.05,
		InitialPn:  8,
		RoughSlots: 1024,
	}
}

// Normalize fills zero-valued fields with the paper defaults and validates
// the result.
func (c Config) Normalize() (Config, error) {
	def := DefaultConfig()
	if c.W == 0 {
		c.W = def.W
	}
	if c.K == 0 {
		c.K = def.K
	}
	if c.C == 0 { //lint:allow floatcmp exact zero-value check for an unset field; no arithmetic feeds it
		c.C = def.C
	}
	if c.Epsilon == 0 { //lint:allow floatcmp exact zero-value check for an unset field; no arithmetic feeds it
		c.Epsilon = def.Epsilon
	}
	if c.Delta == 0 { //lint:allow floatcmp exact zero-value check for an unset field; no arithmetic feeds it
		c.Delta = def.Delta
	}
	if c.InitialPn == 0 {
		c.InitialPn = def.InitialPn
	}
	if c.RoughSlots == 0 {
		c.RoughSlots = def.RoughSlots
	}
	switch {
	case c.W <= 0:
		return c, errors.New("core: W must be positive")
	case c.K <= 0:
		return c, errors.New("core: K must be positive")
	// The float ranges are phrased positively (via stats helpers) so NaN
	// fails them: a negated `<= 0 || > 1` check lets NaN through because
	// every comparison against NaN is false.
	case !(c.C > 0 && c.C <= 1):
		return c, errors.New("core: C must be in (0, 1]")
	case !stats.InUnitInterval(c.Epsilon):
		return c, errors.New("core: Epsilon must be in (0, 1)")
	case !stats.InUnitInterval(c.Delta):
		return c, errors.New("core: Delta must be in (0, 1)")
	case c.InitialPn < 1 || c.InitialPn >= PDenom:
		return c, errors.New("core: InitialPn out of [1, PDenom)")
	case c.W < probeWindow:
		return c, errors.New("core: W shorter than the 32-slot probe window")
	case c.RoughSlots < 1 || c.RoughSlots > c.W:
		return c, errors.New("core: RoughSlots out of [1, W]")
	}
	return c, nil
}

// Result reports one BFCE estimation run.
type Result struct {
	Estimate   float64 // final n̂
	Rough      float64 // n̂_r from the rough phase
	LowerBound float64 // n̂_low = c·n̂_r
	PsNum      int     // probe-phase persistence numerator p_s·PDenom
	PoNum      int     // accurate-phase persistence numerator p_o·PDenom

	ProbeRounds int  // probe adjustments performed
	Feasible    bool // Theorem 3 had a feasible p_o at n̂_low
	Saturated   bool // a phase saw an all-0s/all-1s vector and was clamped

	RhoRough float64 // idle fraction observed in the rough phase
	RhoFinal float64 // idle fraction observed in the accurate phase

	Cost    timing.Cost // communication counters of the whole run
	Seconds float64     // air time under the session profile
}

// Estimator runs the BFCE protocol over a channel session.
type Estimator struct {
	cfg Config
}

// New returns an Estimator for cfg (zero fields defaulted).
func New(cfg Config) (*Estimator, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg}, nil
}

// MustNew is New for configurations known to be valid; it panics otherwise.
func MustNew(cfg Config) *Estimator {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Estimate runs the full two-phase protocol of §IV over the session r and
// returns the estimation result. The error is non-nil only for channel
// misuse (nil session); degenerate observations are reported through
// Result.Saturated/Feasible rather than failing the run, matching the
// protocol's behaviour of always producing an estimate.
//
// The protocol logic lives in the Stepper round state machine
// (stepper.go) and the shared round driver executes it. Estimate is the
// core-level API over hand-built sessions; cancellable, retried and
// observed runs go through the root package's RunSession.
func (e *Estimator) Estimate(r *channel.Reader) (Result, error) {
	return driveStepper(r, e.Stepper())
}

// driveStepper runs a BFCE round machine over the session via the shared
// driver and stamps the cost counters the machine itself cannot see. It is
// the one execution path under Estimate and the Monitor's rounds.
func driveStepper(r *channel.Reader, st *Stepper) (Result, error) {
	if r == nil {
		return Result{}, errors.New("core: nil session")
	}
	startCost := r.Cost()
	if err := channel.Drive(nil, r, st); err != nil {
		return Result{}, err
	}
	res := st.Result()
	res.Cost = r.Cost().Sub(startCost)
	res.Seconds = res.Cost.Seconds(r.Profile)
	return res, nil
}

// clampRho keeps ρ̄ away from the two degenerate values 0 and 1, which make
// Equation 3 blow up (§IV-B). A fully busy (or idle) observation of m slots
// is indistinguishable from ρ̄ < 1/m (resp. > 1−1/m), so the clamp maps it
// to half that resolution bound.
func clampRho(rho float64, m int) (clamped float64, wasDegenerate bool) {
	lo := 0.5 / float64(m)
	if rho <= 0 {
		return lo, true
	}
	if rho >= 1 {
		return 1 - lo, true
	}
	return rho, false
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("n̂=%.0f (rough=%.0f low=%.0f ps=%d po=%d probes=%d feasible=%v) %s",
		r.Estimate, r.Rough, r.LowerBound, r.PsNum, r.PoNum, r.ProbeRounds, r.Feasible, r.Cost)
}
