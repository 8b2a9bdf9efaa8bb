package fleet

import (
	"context"

	"rfidest"
	"rfidest/internal/obs"
	"rfidest/internal/sched"
	"rfidest/internal/stats"
	"rfidest/internal/xrand"
)

// runInterleaved executes the whole batch on the deterministic round
// scheduler: every job becomes one sched.Runner whose Step advances its
// current trial by one protocol round, and the scheduler rotates through
// the jobs breadth-first. The per-job trial/retry/fold logic is a
// round-resumable transcription of runJob/runTrial — same salts, same
// accounting, same break-at-first-failure semantics — so the resulting
// JobResults are bit-identical to the pooled mode's.
func runInterleaved(ctx context.Context, cfg Config, jobs []Job) ([]JobResult, int) {
	runners := make([]*jobRunner, len(jobs))
	steppers := make([]sched.Runner, len(jobs))
	for i, job := range jobs {
		runners[i] = newJobRunner(cfg, i, job)
		steppers[i] = runners[i]
	}
	outcome := sched.Interleave(ctx, sched.Config{Seed: cfg.Seed}, steppers)
	results := make([]JobResult, len(jobs))
	rounds := 0
	for i, r := range runners {
		rounds += outcome[i].Rounds
		results[i] = r.finalize(ctx)
	}
	return results, rounds
}

// jobRunner is one job as a resumable state machine over (trial, attempt,
// round): the scheduler calls Step, each call executes one protocol round
// of the job's current trial attempt, and trial completion folds into the
// JobResult exactly as the pooled runJob loop does.
type jobRunner struct {
	cfg      Config
	index    int
	job      Job
	trials   int
	truth    float64
	observer obs.Observer

	res     JobResult
	metered bool

	t       int // current trial
	attempt int // current retry attempt within the trial
	backoff float64
	rs      *rfidest.RunSession

	started bool // at least one Step ran
	done    bool // the job folded (all trials, first failure, or cancellation)
}

func newJobRunner(cfg Config, index int, job Job) *jobRunner {
	trials := job.Trials
	if trials == 0 {
		trials = 1
	}
	return &jobRunner{
		cfg:      cfg,
		index:    index,
		job:      job,
		trials:   trials,
		truth:    float64(job.System.N()),
		observer: obs.Multi(cfg.Observer, job.Observer),
		res:      JobResult{Job: job, Index: index, FailedAt: -1},
		backoff:  job.RetryBackoffSeconds,
	}
}

// Step implements sched.Runner: it opens the current trial attempt's
// session if none is in flight, then executes exactly one protocol round.
func (j *jobRunner) Step(ctx context.Context) (bool, error) {
	if j.done {
		return true, nil
	}
	j.started = true
	if j.rs == nil {
		if ctx != nil && ctx.Err() != nil {
			return j.finish(), nil // keep what completed; Run reports the cancellation
		}
		salt := saltFor(j.cfg.Seed, j.index, j.t)
		if j.attempt > 0 {
			salt = xrand.Combine(j.cfg.Seed, uint64(j.index), uint64(j.t), uint64(j.attempt))
		}
		opts := append([]rfidest.Option{
			rfidest.WithEstimator(j.job.Estimator),
			rfidest.WithAccuracy(j.job.Epsilon, j.job.Delta),
			rfidest.WithSeedSalt(salt),
			rfidest.WithObserver(j.observer)}, j.job.Options...)
		rs, err := j.job.System.StartRun(opts...)
		if err != nil {
			return j.trialDone(ctx, rfidest.Estimate{}, err), nil
		}
		j.rs = rs
	}
	done, _ := j.rs.Step(ctx)
	if !done {
		return false, nil
	}
	est, err := j.rs.Result()
	j.rs = nil
	return j.trialDone(ctx, est, err), nil
}

// trialDone resolves one completed attempt, replaying runTrial's retry
// decision and runJob's fold, and reports whether the whole job is done.
func (j *jobRunner) trialDone(ctx context.Context, est rfidest.Estimate, err error) bool {
	settled := err == nil && !est.Saturated
	if !settled && j.attempt < j.job.Retries && (ctx == nil || ctx.Err() == nil) {
		// Re-run the trial over a fresh attempt-extended salt, charging the
		// exponential backoff as simulated air time.
		j.res.Retries++
		j.res.BackoffSeconds += j.backoff
		j.res.AirSeconds += j.backoff
		j.backoff *= 2
		j.attempt++
		j.observer.Retry(j.job.Estimator, j.attempt)
		return false
	}
	j.attempt = 0
	j.backoff = j.job.RetryBackoffSeconds
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return j.finish() // a cancelled batch never turns into per-job errors
		}
		if j.job.Retries > 0 {
			// Retries exhausted: the job degrades to the trials that did
			// complete instead of failing the batch.
			j.res.Degraded = true
			j.observer.Degraded(j.job.Estimator)
			return j.finish()
		}
		j.res.Err = err
		j.res.Failure = err.Error()
		j.res.FailedAt = j.t
		return j.finish()
	}
	if est.Saturated {
		// The accepted estimate is still a clamp artifact after every
		// allowed re-run — keep it but flag the degradation.
		j.res.Degraded = true
		j.res.DegradedTrials++
		j.observer.Degraded(j.job.Estimator)
	}
	j.res.Estimates = append(j.res.Estimates, est)
	j.res.AirSeconds += est.Seconds
	if est.TagTransmissions >= 0 {
		j.metered = true
		j.res.Transmissions += est.TagTransmissions
	}
	if j.truth > 0 {
		e := stats.RelError(est.N, j.truth)
		j.res.MeanAbsErr += e
		if e > j.res.MaxAbsErr {
			j.res.MaxAbsErr = e
		}
	}
	j.t++
	if j.t >= j.trials {
		return j.finish()
	}
	return false
}

// finish seals the JobResult with the same post-loop accounting runJob
// applies, and always reports done.
func (j *jobRunner) finish() bool {
	if len(j.res.Estimates) > 0 {
		j.res.MeanAbsErr /= float64(len(j.res.Estimates))
	}
	if !j.metered {
		j.res.Transmissions = -1
	}
	j.done = true
	return true
}

// finalize extracts the JobResult after the scheduler returns. A job the
// scheduler never reached (cancellation before its first round) is marked
// Skipped like a never-started pooled job; a job cut mid-trial drains its
// open session (one Step under the cancelled context fails the run and
// closes its observer span) and keeps the trials that completed.
func (j *jobRunner) finalize(ctx context.Context) JobResult {
	if !j.started {
		return JobResult{Job: j.job, Index: j.index, FailedAt: -1, Skipped: true, Transmissions: -1}
	}
	if !j.done {
		if j.rs != nil {
			j.rs.Step(ctx)
			j.rs = nil
		}
		j.finish()
	}
	return j.res
}
