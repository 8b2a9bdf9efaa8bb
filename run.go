package rfidest

import (
	"context"
	"fmt"

	"rfidest/internal/channel"
	"rfidest/internal/core"
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
// (counter-derived, or salt-addressed under WithSalt), runs the selected
// protocol to the accuracy requirement, and returns the estimate. With no
// options it runs BFCE at the paper's (0.05, 0.05) requirement.
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
	o := defaultRunOptions()
	for _, opt := range opts {
		opt(&o)
	}
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
	open := s.session
	if o.hasSalt {
		salt := o.salt
		open = func() *channel.Reader { return s.sessionAt(salt) }
	}
	return s.runOn(ctx, open, o)
}

// runOn validates the options, opens a session via open and drives the
// selected protocol's round machine to completion. It is Run's execution
// loop, and so that of the deprecated EstimateBFCE, EstimateWith and
// EstimateWithSalt wrappers; RunBFCEDetail (behind EstimateBFCEDetail)
// drives core's retry loop itself to keep BFCE's internal diagnostics.
func (s *System) runOn(ctx context.Context, open func() *channel.Reader, o runOptions) (Estimate, error) {
	rs, err := s.startRun(open, o)
	if err != nil {
		return Estimate{}, err
	}
	for {
		done, err := rs.Step(ctx)
		if err != nil {
			return Estimate{}, err
		}
		if done {
			break
		}
	}
	return rs.Result()
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

// reportFaults forwards the session's injector counters (if a fault
// injector is installed and fired) to the observer, once per run.
func (s *System) reportFaults(session *channel.Reader, o obs.Observer) {
	if o == obs.Nop {
		return
	}
	fs, ok := session.Engine.(interface{ FaultStats() obs.FaultStats })
	if !ok {
		return
	}
	if st := fs.FaultStats(); st != (obs.FaultStats{}) {
		o.Faults(st)
	}
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
// anything but BFCE is an error; the other options behave as in Run.
func (s *System) RunBFCEDetail(ctx context.Context, opts ...Option) (BFCEDetail, error) {
	o := defaultRunOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxbg documented nil-ctx convenience default
	}
	if err := ctx.Err(); err != nil {
		return BFCEDetail{}, err
	}
	if o.estimator != "BFCE" {
		return BFCEDetail{}, fmt.Errorf("rfidest: RunBFCEDetail runs BFCE only, got estimator %q", o.estimator)
	}
	if err := validateAccuracy(o.epsilon, o.delta); err != nil {
		return BFCEDetail{}, err
	}
	if err := validateRetry(o.retries, o.retryBudget); err != nil {
		return BFCEDetail{}, err
	}
	if err := validateTimeout(o.timeout); err != nil {
		return BFCEDetail{}, err
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	est, err := core.New(core.Config{Epsilon: o.epsilon, Delta: o.delta})
	if err != nil {
		return BFCEDetail{}, err
	}
	session := s.session
	if o.hasSalt {
		salt := o.salt
		session = func() *channel.Reader { return s.sessionAt(salt) }
	}
	r := session()
	instrumented := o.observer != obs.Nop
	if instrumented {
		r.SetObserver(o.observer)
		o.observer.SessionOpen("BFCE")
	}
	res, err := est.EstimateRetry(ctx, r, core.RetryPolicy{MaxRetries: o.retries, BudgetSeconds: o.retryBudget})
	if instrumented {
		for i := 1; i <= res.Retries; i++ {
			o.observer.Retry("BFCE", i)
		}
		if o.retries > 0 && (res.Saturated || !res.Feasible) {
			o.observer.Degraded("BFCE")
		}
	}
	if instrumented {
		o.observer.SessionClose(obs.SessionStats{
			Estimator:        "BFCE",
			Estimate:         res.Estimate,
			Rounds:           1,
			Slots:            res.Cost.TagSlots,
			ReaderBits:       res.Cost.ReaderBits,
			Seconds:          res.Seconds,
			TagTransmissions: r.TagTransmissions(),
			Guarded:          res.Feasible,
			Err:              err != nil,
		})
	}
	if err != nil {
		return BFCEDetail{}, err
	}
	out := BFCEDetail{
		Estimate: Estimate{
			N:                res.Estimate,
			Seconds:          res.Seconds,
			Slots:            res.Cost.TagSlots,
			ReaderBits:       res.Cost.ReaderBits,
			Rounds:           1 + res.Retries,
			Guarded:          res.Feasible,
			TagTransmissions: r.TagTransmissions(),
			Saturated:        res.Saturated,
			Retries:          res.Retries,
		},
		Rough:       res.Rough,
		LowerBound:  res.LowerBound,
		ProbePn:     res.PsNum,
		OptimalPn:   res.PoNum,
		ProbeRounds: res.ProbeRounds,
		Feasible:    res.Feasible,
		Saturated:   res.Saturated,
	}
	s.reportFaults(r, o.observer)
	if instrumented && s.n > 0 {
		o.observer.EstimateError(stats.RelError(out.Estimate.N, float64(s.n)))
	}
	return out, nil
}
