package rfidest

import (
	"context"
	"errors"
	"fmt"

	"rfidest/internal/channel"
	"rfidest/internal/estimators"
	"rfidest/internal/obs"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// RunSession is one estimation run held open between protocol rounds.
// StartRun opens the session and pauses before the first round; each Step
// executes exactly one protocol round (see channel.StepRound); Result
// returns the estimate once Step reports done.
//
// RunSession is the one loop that executes an estimate in this package:
// Run, RunBFCEDetail and Monitor.Run each step one to completion, so the
// deadline, session spans, retry ladder, fault forwarding and error
// metric behave the same whichever entry point started the run. A
// stepped run is bit-identical to Run with the same options, but the
// caller owns the schedule: rounds of several sessions can be interleaved
// (the fleet harness's -interleave mode drives many RunSession-shaped runs
// round-robin), a deadline can cut a run at a round boundary, and
// progress can be observed mid-protocol.
//
// A RunSession is single-goroutine; concurrent runs take one RunSession
// each (the underlying System stays shared and safe).
type RunSession struct {
	sys  *System
	o    runOptions
	est  estimators.Estimator // registry protocol, when src is nil
	acc  estimators.Accuracy
	src  stepperSource // caller-supplied round machines, or nil
	st   estimators.Stepper
	r    *channel.Reader
	prev obs.Observer

	attempt      int // retry attempts started beyond the first run
	attemptStart timing.Cost
	total        estimators.Result
	rounds       int

	// WithTimeout state: the deadline context is armed at the first Step
	// (derived from that Step's ctx) and its timer released at finish.
	tctx    context.Context
	tcancel context.CancelFunc

	finished bool
	out      Estimate
	err      error
}

// stepperSource supplies the round machine of each attempt a RunSession
// starts, in place of the estimator registry: RunBFCEDetail hands over
// BFCE machines it keeps for their diagnostics, Monitor.Run the monitor's
// warm or fast round.
type stepperSource interface {
	nextStepper() (estimators.Stepper, error)
}

// StartRun validates the options, opens a fresh session (counter-derived,
// or salt-addressed under WithSeedSalt) and returns the run paused before
// its first round. The options are those of Run; nothing executes until
// Step.
func (s *System) StartRun(opts ...Option) (*RunSession, error) {
	return s.startRun(newRunOptions(opts), nil)
}

// startRun is the shared constructor behind StartRun and the run loop;
// src, when non-nil, replaces the registry as the source of each
// attempt's round machine. The operation order (estimator lookup,
// option validation, stepper build, then session open) is load-bearing —
// the session counter must not advance for invalid calls.
func (s *System) startRun(o runOptions, src stepperSource) (*RunSession, error) {
	rs := &RunSession{sys: s, o: o, src: src}
	if src == nil {
		est, err := estimators.New(o.estimator)
		if err != nil {
			return nil, fmt.Errorf("rfidest: %w", err)
		}
		rs.est, rs.acc = est, estimators.Accuracy{Epsilon: o.epsilon, Delta: o.delta}
	}
	if err := validateAccuracy(o.epsilon, o.delta); err != nil {
		return nil, err
	}
	if err := validateRetry(o.retries, o.retryBudget); err != nil {
		return nil, err
	}
	if err := validateTimeout(o.timeout); err != nil {
		return nil, err
	}
	st, err := rs.nextStepper()
	if err != nil {
		return nil, err
	}
	rs.st = st
	if o.hasSalt {
		rs.r = s.sessionAt(o.salt)
	} else {
		rs.r = s.session()
	}
	rs.attemptStart = rs.r.Cost()
	if rs.instrumented() {
		rs.prev = rs.r.Observer()
		rs.r.SetObserver(obs.Multi(rs.prev, o.observer))
		o.observer.SessionOpen(rs.o.estimator)
	}
	return rs, nil
}

// nextStepper builds the round machine of the next attempt.
func (rs *RunSession) nextStepper() (estimators.Stepper, error) {
	if rs.src != nil {
		return rs.src.nextStepper()
	}
	return estimators.AsStepper(rs.est, rs.acc)
}

func (rs *RunSession) instrumented() bool { return rs.o.observer != obs.Nop }

// Estimator returns the registry name of the protocol being run.
func (rs *RunSession) Estimator() string { return rs.o.estimator }

// Rounds returns how many protocol rounds have been stepped so far,
// across retry attempts.
func (rs *RunSession) Rounds() int { return rs.rounds }

// Done reports whether the run has finished (successfully or not).
func (rs *RunSession) Done() bool { return rs.finished }

// Step executes the next protocol round and reports whether the run
// completed. ctx, when non-nil, cancels between rounds: it is checked
// before the round executes, the round in flight always completes, and a
// cancelled run finishes with ctx's error. Saturated-run retries
// (WithRetry) happen inside Step — a retried run simply keeps stepping
// through fresh attempts until it settles or exhausts its budget.
//
// After the first (true, err) return, further Steps are no-ops returning
// the same outcome.
func (rs *RunSession) Step(ctx context.Context) (done bool, err error) {
	if rs.finished {
		return true, rs.err
	}
	if rs.o.timeout > 0 {
		if rs.tcancel == nil {
			base := ctx
			if base == nil {
				base = context.Background() //lint:allow ctxbg WithTimeout on a nil-ctx Step needs a root to hang the deadline on
			}
			rs.tctx, rs.tcancel = context.WithTimeout(base, rs.o.timeout)
		}
		ctx = rs.tctx
	}
	done, err = channel.StepRound(ctx, rs.r, rs.st)
	if err != nil {
		rs.r.EndPhase()
		return true, rs.fail(err)
	}
	rs.rounds++
	if !done {
		return false, nil
	}
	rs.r.EndPhase()

	// One attempt (a full protocol run) completed: finalize its result and
	// fold it into the running total, exactly as the pre-stepper retry loop
	// accumulated re-runs.
	res := rs.st.Result(rs.r.Cost().Sub(rs.attemptStart), rs.r.Profile)
	if rs.instrumented() {
		rs.o.observer.SessionClose(obs.SessionStats{
			Estimator:        rs.o.estimator,
			Estimate:         res.Estimate,
			Rounds:           res.Rounds,
			Slots:            res.Slots,
			ReaderBits:       res.Cost.ReaderBits,
			Seconds:          res.Seconds,
			TagTransmissions: rs.r.TagTransmissions(),
			Guarded:          res.Guarded,
			Err:              false,
		})
	}
	if rs.attempt > 0 {
		res.Rounds += rs.total.Rounds
		res.Slots += rs.total.Slots
		res.Seconds += rs.total.Seconds
		res.Cost.Add(rs.total.Cost)
	}
	rs.total = res

	// Retry: a saturated run is re-run with fresh frame seeds (the
	// session's seed stream simply continues) while attempts and the
	// simulated air-time budget allow.
	if rs.total.Saturated && rs.attempt < rs.o.retries &&
		!(rs.o.retryBudget > 0 && rs.total.Seconds >= rs.o.retryBudget) {
		rs.attempt++
		rs.o.observer.Retry(rs.o.estimator, rs.attempt)
		st, err := rs.nextStepper()
		if err != nil {
			return true, rs.fail(err)
		}
		rs.st = st
		rs.attemptStart = rs.r.Cost()
		if rs.instrumented() {
			rs.o.observer.SessionOpen(rs.o.estimator)
		}
		return false, nil
	}

	rs.settle()
	return true, nil
}

// fail finishes the run with an error, closing the open session span (with
// a zero result and the error flag, as the instrumented path always did)
// and restoring the session observer.
func (rs *RunSession) fail(err error) error {
	if rs.tcancel != nil {
		rs.tcancel()
	}
	if rs.instrumented() {
		rs.o.observer.SessionClose(obs.SessionStats{
			Estimator:        rs.o.estimator,
			TagTransmissions: rs.r.TagTransmissions(),
			Err:              true,
		})
		rs.r.SetObserver(rs.prev)
	}
	rs.finished = true
	rs.err = err
	return err
}

// settle finishes a successful run: degradation accounting, fault
// forwarding and the estimation-error metric, in the exact order of the
// pre-stepper execution path.
func (rs *RunSession) settle() {
	if rs.tcancel != nil {
		rs.tcancel()
	}
	if rs.o.retries > 0 && rs.total.Saturated {
		rs.o.observer.Degraded(rs.o.estimator)
	}
	out := fromResult(rs.total)
	out.Retries = rs.attempt
	out.TagTransmissions = rs.r.TagTransmissions()
	if rs.instrumented() {
		rs.r.SetObserver(rs.prev)
		rs.reportFaults()
		if rs.sys.n > 0 {
			rs.o.observer.EstimateError(stats.RelError(out.N, float64(rs.sys.n)))
		}
	}
	rs.finished = true
	rs.out = out
}

// reportFaults forwards the session's injector counters (if a fault
// injector is installed and fired) to the observer, once per run.
func (rs *RunSession) reportFaults() {
	fs, ok := rs.r.Engine.(interface{ FaultStats() obs.FaultStats })
	if !ok {
		return
	}
	if st := fs.FaultStats(); st != (obs.FaultStats{}) {
		rs.o.observer.Faults(st)
	}
}

// Result returns the estimate of a completed run. Calling it before Step
// reports done is an error.
func (rs *RunSession) Result() (Estimate, error) {
	if !rs.finished {
		return Estimate{}, errors.New("rfidest: run still in progress; Step it until done")
	}
	if rs.err != nil {
		return Estimate{}, rs.err
	}
	return rs.out, nil
}
