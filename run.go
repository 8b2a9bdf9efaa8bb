package rfidest

import (
	"context"
	"fmt"

	"rfidest/internal/core"
	"rfidest/internal/estimators"
	"rfidest/internal/obs"
	"rfidest/internal/stats"
)

// Observer receives span hooks and metric events from estimation runs; see
// the internal/obs package for the hook taxonomy. The zero-cost default is
// NopObserver; Metrics is the aggregating implementation.
type Observer = obs.Observer

// NopObserver is the default observer: it does nothing and allocates
// nothing, so uninstrumented runs stay at benchmark parity.
var NopObserver Observer = obs.Nop

// MultiObserver tees hooks to several observers in order, dropping nil and
// NopObserver entries.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// Metrics is a concurrency-safe metrics registry implementing Observer:
// counters for slots, reader bits and tag transmissions; histograms for air
// time, probe rounds and estimation error. Snapshot it for JSON or
// expvar-style text export.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a Metrics registry.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metrics registry. One registry may observe
// any number of concurrent runs.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Run executes one estimation over the system: it opens a fresh session
// (counter-derived, or salt-addressed under WithSeedSalt), runs the
// selected protocol to the accuracy requirement, and returns the estimate.
// With no options it runs BFCE at the paper's (0.05, 0.05) requirement.
//
// The context is checked before the run starts and again before every
// protocol round; the round in flight always completes, so a cancelled run
// stops at a round boundary with the session's seed stream intact. The
// session-counter and salt-addressing determinism contracts are unaffected
// — an uncancelled run is bit-identical regardless of ctx. A nil ctx is
// treated as context.Background().
//
// Run is safe for concurrent use against one shared System. It is exactly
// a StartRun/Step loop; callers that need to own the round schedule
// (interleaving, round-granular deadlines) use those directly.
func (s *System) Run(ctx context.Context, opts ...Option) (Estimate, error) {
	return s.run(ctx, newRunOptions(opts), nil)
}

// run is the one execution loop behind Run, RunBFCEDetail and
// Monitor.Run: options, then deadline, then session, then startRun, then
// Step until done. src, when non-nil, supplies each attempt's round
// machine in place of the estimator registry.
func (s *System) run(ctx context.Context, o runOptions, src stepperSource) (Estimate, error) {
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxbg documented nil-ctx convenience default
	}
	if err := ctx.Err(); err != nil {
		return Estimate{}, err
	}
	if err := validateTimeout(o.timeout); err != nil {
		return Estimate{}, err
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
		o.timeout = 0 // applied here; the RunSession must not arm a second timer
	}
	rs, err := s.startRun(o, src)
	if err != nil {
		return Estimate{}, err
	}
	for {
		done, err := rs.Step(ctx)
		if err != nil {
			return Estimate{}, err
		}
		if done {
			return rs.Result()
		}
	}
}

// validateRetry is the WithRetry domain check. The budget comparison is
// phrased positively so NaN fails it.
func validateRetry(retries int, budget float64) error {
	if retries < 0 {
		return fmt.Errorf("rfidest: negative retry count %d", retries)
	}
	if !(budget >= 0) {
		return fmt.Errorf("rfidest: retry budget must be >= 0 seconds, got %v", budget)
	}
	return nil
}

// validateAccuracy is the one (ε, δ) domain check behind every public
// entry point. The check is phrased through stats.InUnitInterval so NaN —
// which passes a naive `<= 0 || >= 1` rejection because both comparisons
// are false — is rejected along with ±Inf and out-of-range values.
func validateAccuracy(epsilon, delta float64) error {
	if !stats.InUnitInterval(epsilon) || !stats.InUnitInterval(delta) {
		return fmt.Errorf("rfidest: epsilon and delta must be in (0, 1), got (%v, %v)", epsilon, delta)
	}
	return nil
}

// RunBFCEDetail is Run restricted to BFCE, returning the protocol's
// internal diagnostics alongside the estimate. WithEstimator selecting
// anything but BFCE is an error; the other options behave as in Run, and
// the Estimate is the one Run returns for the same options. Under
// WithRetry the diagnostics describe the last attempt, except ProbeRounds,
// which sums every attempt.
func (s *System) RunBFCEDetail(ctx context.Context, opts ...Option) (BFCEDetail, error) {
	o := newRunOptions(opts)
	if o.estimator != "BFCE" {
		return BFCEDetail{}, fmt.Errorf("rfidest: RunBFCEDetail runs BFCE only, got estimator %q", o.estimator)
	}
	rounds := &detailRounds{cfg: core.Config{Epsilon: o.epsilon, Delta: o.delta}}
	est, err := s.run(ctx, o, rounds)
	if err != nil {
		return BFCEDetail{}, err
	}
	res := rounds.cur.Result()
	return BFCEDetail{
		Estimate:    est,
		Rough:       res.Rough,
		LowerBound:  res.LowerBound,
		ProbePn:     res.PsNum,
		OptimalPn:   res.PoNum,
		ProbeRounds: rounds.probes + res.ProbeRounds,
		Feasible:    res.Feasible,
		Saturated:   res.Saturated,
	}, nil
}

// detailRounds is RunBFCEDetail's stepper source: a fresh BFCE machine per
// attempt, the current one kept for its diagnostics and the probe rounds
// of the earlier attempts summed.
type detailRounds struct {
	cfg    core.Config
	cur    *core.Stepper
	probes int
}

func (d *detailRounds) nextStepper() (estimators.Stepper, error) {
	// Built per attempt, after startRun has validated the accuracy: core
	// would silently default a zero epsilon or delta.
	est, err := core.New(d.cfg)
	if err != nil {
		return nil, err
	}
	if d.cur != nil {
		d.probes += d.cur.Result().ProbeRounds
	}
	d.cur = est.Stepper()
	return estimators.BFCEStepper(d.cur), nil
}
