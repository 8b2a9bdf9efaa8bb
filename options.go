package rfidest

import (
	"fmt"
	"time"

	"rfidest/internal/channel"
	"rfidest/internal/estimators"
	"rfidest/internal/obs"
)

// This file is the one documented home of the public Option surface. The
// same options configure every execution entry point — (*System).Run,
// (*System).StartRun, (*System).RunBFCEDetail and (*Monitor).Run — and the
// fleet runner forwards per-job option slices (fleet.Job.Options) onto the
// same functions, so the network serving layer marshals one wire schema
// onto one programmatic API. Entry points that cannot honor an option
// reject it explicitly (Monitor.Run rejects WithEstimator, WithAccuracy
// and WithRetry) rather than ignoring it.

// Option configures an estimation run.
type Option func(*runOptions)

type runOptions struct {
	estimator    string
	hasEstimator bool
	epsilon      float64
	delta        float64
	hasAccuracy  bool
	salt         uint64
	hasSalt      bool
	observer     obs.Observer
	retries      int
	retryBudget  float64
	hasRetry     bool
	timeout      time.Duration
}

// newRunOptions applies opts over the defaults: BFCE at (0.05, 0.05),
// counter-derived session, no observer, no retry, no deadline.
func newRunOptions(opts []Option) runOptions {
	o := runOptions{
		estimator: "BFCE",
		epsilon:   estimators.Default.Epsilon,
		delta:     estimators.Default.Delta,
		observer:  obs.Nop,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// ErrUnknownEstimator is the sentinel behind the "unknown estimator" error
// every entry point returns for a WithEstimator name outside the registry
// (see Estimators). Callers that translate estimator lookup into a
// protocol-level response — the serving layer's HTTP 400, a CLI usage
// message — test for it with errors.Is.
var ErrUnknownEstimator = estimators.ErrUnknownEstimator

// ErrSlotLimit is the sentinel behind the error ZOE and SRC return for an
// in-range (ε, δ) whose accurate phase would need more than 2^24 slots —
// any δ below about 1e-16 (1−δ rounds to 1) or an ε of about 1e-3 and
// below. The run fails before its session opens; callers that translate
// it into a protocol-level response (the serving layer's HTTP 400) test
// for it with errors.Is.
var ErrSlotLimit = estimators.ErrSlotLimit

// ErrUnsupportedRound is the sentinel behind the error a run returns when
// the protocol needs a round the system's channel cannot execute: a
// paper-hash system (WithPaperTagHash) addresses only power-of-two frames
// of at least 2 slots, so ZOE and ZOE-batched (1-slot frames) and SRC
// (⌈7.72/ε²⌉-slot frames) cannot run on it, and UPE's slot-state frames
// need a channel that models slot states, which a WithFaults channel does
// not. The run stops before the round's broadcast; callers that translate it into a protocol-level
// response (the serving layer's HTTP 400) test for it with errors.Is.
var ErrUnsupportedRound = channel.ErrUnsupportedRound

// WithEstimator selects the protocol to run, by registry name (see
// Estimators). The default is "BFCE", the paper's estimator. An unknown
// name fails the run with an error wrapping ErrUnknownEstimator.
func WithEstimator(name string) Option {
	return func(o *runOptions) { o.estimator, o.hasEstimator = name, true }
}

// WithAccuracy sets the (ε, δ) requirement: P(|n̂ − n| ≤ ε·n) ≥ 1 − δ.
// Both parameters must lie in (0, 1). The default is (0.05, 0.05), the
// paper's evaluation setting.
func WithAccuracy(epsilon, delta float64) Option {
	return func(o *runOptions) { o.epsilon, o.delta, o.hasAccuracy = epsilon, delta, true }
}

// WithSeedSalt addresses the run's session by an explicit salt instead of
// the system's shared session counter. Equal (system, salt) pairs replay
// bit-identical sessions no matter how many other estimations are in
// flight — what deterministic parallel harnesses (the fleet runner, the
// serving layer's request salts) key their work on. Distinct salts give
// independent sessions, like distinct counter values.
func WithSeedSalt(salt uint64) Option {
	return func(o *runOptions) { o.salt, o.hasSalt = salt, true }
}

// WithSalt is WithSeedSalt under its original name. Both names address the
// same option; WithSeedSalt is the documented spelling shared with the
// fleet and serving layers.
func WithSalt(salt uint64) Option { return WithSeedSalt(salt) }

// WithTimeout bounds the run with a deadline of d from the moment
// execution starts: Run and Monitor.Run derive a context.WithTimeout from
// the caller's ctx before the first round; a StartRun session starts its
// clock at the first Step (the deadline context derives from that Step's
// ctx). Like any context deadline the cut happens at a round boundary —
// the round in flight always completes — and the run fails with
// context.DeadlineExceeded. d must be non-negative; zero (the default)
// means no per-run deadline. A tighter deadline already on ctx still
// applies: the effective deadline is whichever expires first.
func WithTimeout(d time.Duration) Option {
	return func(o *runOptions) { o.timeout = d }
}

// WithObserver attaches an observer to the run: session and phase spans,
// per-frame slot counts and cost counters are reported to it as the
// protocol executes. Observation is passive — the estimate is bit-identical
// with and without an observer. Nil restores the zero-cost default.
func WithObserver(o Observer) Option {
	return func(ro *runOptions) {
		if o == nil {
			o = obs.Nop
		}
		ro.observer = o
	}
}

// WithRetry re-runs a saturated round up to retries times, within an
// optional simulated-air-time budget (budgetSeconds; 0 means unbounded).
// A saturated round observed a degenerate all-idle/all-busy vector — under
// channel faults or a mis-sized population the estimate is then a clamp
// artifact, and a re-run with fresh frame seeds (drawn from the same
// session stream, so the whole run stays a pure function of the session
// salt) often recovers a usable measurement. Retries are reported through
// Estimate.Retries and the observer's Retry/Degraded hooks; the default is
// no retry, keeping the machinery passive.
//
// Both arguments must be non-negative; budgetSeconds must not be NaN.
func WithRetry(retries int, budgetSeconds float64) Option {
	return func(o *runOptions) { o.retries, o.retryBudget, o.hasRetry = retries, budgetSeconds, true }
}

// validateTimeout is the WithTimeout domain check.
func validateTimeout(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("rfidest: negative run timeout %v", d)
	}
	return nil
}
