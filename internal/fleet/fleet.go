package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"rfidest"
	"rfidest/internal/obs"
	"rfidest/internal/stats"
	"rfidest/internal/xrand"
)

// Job is one unit of fleet work: repeated (ε, δ) estimations of a single
// System with a named estimator.
type Job struct {
	// Name labels the job in reports; empty names render as "sysI/estimator".
	Name string `json:"name,omitempty"`
	// System is the deployment to estimate. Systems may be shared between
	// jobs: concurrent estimation over one System is safe, and fleet trials
	// address their sessions by salt, so sharing does not perturb results.
	System *rfidest.System `json:"-"`
	// Estimator is a registry name accepted by rfidest.WithEstimator (see
	// rfidest.Estimators).
	Estimator string `json:"estimator"`
	// Epsilon, Delta form the accuracy requirement, both in (0, 1).
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// Trials is how many independent estimations to run (0 means 1).
	Trials int `json:"trials,omitempty"`
	// Retries is how many times a failed or saturated trial may be re-run
	// before the job degrades (0 = no retry, the historical behaviour:
	// the first error fails the job). Retry attempt k of trial t runs over
	// the session addressed by Combine(seed, job, t, k), so retried
	// batches replay bit-identically too.
	//
	// Deprecated: prefer Options with rfidest.WithRetry, which re-runs
	// saturated rounds inside one session instead of re-salting whole
	// trials. The field is kept for batches that want the historical
	// fresh-salt retry ladder.
	Retries int `json:"retries,omitempty"`
	// RetryBackoffSeconds is the simulated air time charged before retry
	// attempt k (scaled by 2^(k-1) — exponential backoff). It models the
	// quiet period a real reader waits out after a failed round and is
	// accounted in AirSeconds/BackoffSeconds; no wall-clock sleep happens.
	//
	// Deprecated: meaningful only with the deprecated Retries ladder.
	RetryBackoffSeconds float64 `json:"retryBackoffSeconds,omitempty"`
	// Observer, when non-nil, receives the job's session and phase spans.
	// It is teed with the batch-wide Config.Observer; observation is
	// passive, so attaching one never perturbs results.
	Observer obs.Observer `json:"-"`
	// Options are extra rfidest run options appended after the ones the
	// runner derives from the fields above (estimator, accuracy, trial
	// salt, observer) — the unified option path the serving layer marshals
	// requests onto. Because options apply in order, an option here
	// overrides its field-derived counterpart: rfidest.WithSeedSalt pins
	// every trial and retry attempt of the job to that one session
	// (Trials > 1 then re-runs one bit-identical session),
	// rfidest.WithTimeout bounds each trial attempt — in pooled and
	// interleaved mode alike; a timed-out attempt fails (or, with
	// Retries, is retried) like any other — and rfidest.WithEstimator /
	// rfidest.WithAccuracy shadow the Estimator / Epsilon / Delta fields.
	// Options must be pure (stateless closures): they are re-applied on
	// every trial and attempt.
	Options []rfidest.Option `json:"-"`
}

// JobResult is the outcome of one Job.
type JobResult struct {
	Job   Job `json:"job"`
	Index int `json:"index"` // position in the submitted batch

	// Estimates holds one entry per completed trial, in trial order.
	Estimates []rfidest.Estimate `json:"estimates,omitempty"`
	// Err is the first trial error; trials after a failure are not run.
	// FailedAt is that trial's index (-1 when Err is nil). With Retries
	// configured, a trial that exhausts its retries degrades the job (see
	// Degraded) instead of setting Err — only batch cancellation and
	// retry-exempt failures land here. Err itself does not marshal;
	// Failure carries its message on the wire.
	Err      error  `json:"-"`
	Failure  string `json:"failure,omitempty"`
	FailedAt int    `json:"failedAt"`
	// Skipped is set when cancellation struck before the job started.
	Skipped bool `json:"skipped,omitempty"`

	// Degraded reports the job returned a partial or reduced-quality
	// result: a trial exhausted its retries (and was dropped), or a
	// trial's accepted estimate was still saturated after retrying.
	// DegradedTrials counts the latter.
	Degraded       bool `json:"degraded,omitempty"`
	DegradedTrials int  `json:"degradedTrials,omitempty"`
	// Retries is the total number of re-run attempts across the job's
	// trials; BackoffSeconds the simulated backoff time they cost (also
	// included in AirSeconds).
	Retries        int     `json:"retries,omitempty"`
	BackoffSeconds float64 `json:"backoffSeconds,omitempty"`

	// MeanAbsErr and MaxAbsErr summarize |n̂−n|/n over the completed
	// trials against the System's ground truth (NaN-free: 0 when no trial
	// completed).
	MeanAbsErr float64 `json:"meanAbsErr"`
	MaxAbsErr  float64 `json:"maxAbsErr"`
	// AirSeconds is the total simulated air time the job consumed.
	AirSeconds float64 `json:"airSeconds"`
	// Transmissions is the total tag transmissions across trials, or -1
	// when the System's engine does not meter energy.
	Transmissions int `json:"transmissions"`
}

// Label returns the job's display name.
func (r JobResult) Label() string {
	if r.Job.Name != "" {
		return r.Job.Name
	}
	return fmt.Sprintf("sys%d/%s", r.Index, r.Job.Estimator)
}

// Report aggregates a batch. Everything except WallSeconds and Throughput
// is a pure function of (seed, jobs) — bit-identical across worker counts.
type Report struct {
	Jobs []JobResult `json:"jobs"`

	Trials   int `json:"trials"`             // completed trials across all jobs
	Failed   int `json:"failed,omitempty"`   // jobs that stopped on an error
	Skipped  int `json:"skipped,omitempty"`  // jobs cancelled before starting
	Degraded int `json:"degraded,omitempty"` // jobs that returned a degraded result
	Retries  int `json:"retries,omitempty"`  // trial re-runs across all jobs

	// Accuracy of all completed trials: mean and quantiles of |n̂−n|/n.
	MeanAbsErr float64 `json:"meanAbsErr"`
	P50AbsErr  float64 `json:"p50AbsErr"`
	P90AbsErr  float64 `json:"p90AbsErr"`
	P99AbsErr  float64 `json:"p99AbsErr"`
	MaxAbsErr  float64 `json:"maxAbsErr"`

	// AirSeconds is the total simulated air time; WallSeconds the real
	// time Run took; Throughput the completed trials per wall second.
	AirSeconds  float64 `json:"airSeconds"`
	WallSeconds float64 `json:"wallSeconds"`
	Throughput  float64 `json:"throughput"`

	// SchedRounds is the number of protocol rounds the interleaving
	// scheduler executed across the batch (0 in pooled mode).
	SchedRounds int `json:"schedRounds,omitempty"`
}

// Config tunes a Run.
type Config struct {
	// Workers bounds the pool (<= 0 means GOMAXPROCS). The worker count
	// affects wall-clock time only, never results.
	Workers int
	// Seed roots the per-trial session salts: trial t of job i runs over
	// the session addressed by Combine(Seed, i, t).
	Seed uint64
	// Observer, when non-nil, receives every trial's session and phase
	// spans across the whole batch — typically an *obs.Registry shared by
	// all workers. Results are bit-identical with or without it.
	Observer obs.Observer
	// Interleave selects the scheduler-backed batch mode: instead of a
	// worker pool running each trial to completion, a single deterministic
	// round scheduler (internal/sched) advances every job one protocol
	// round per scheduling epoch — the breadth-first schedule a fleet of
	// readers sharing one medium would follow. Trials within a job stay
	// sequential (trial t+1's warm accounting depends on trial t's fold),
	// so the Report is bit-identical to the pooled mode's: same salts,
	// same folds, same estimates. Report.SchedRounds counts the rounds the
	// scheduler executed.
	Interleave bool
}

// Run executes the batch over a bounded worker pool. Job errors are
// collected per job (a failing job does not stop its siblings); the
// returned error is non-nil only for an invalid batch or cancellation.
// On cancellation the partial Report is still returned, with unstarted
// jobs marked Skipped.
func Run(ctx context.Context, cfg Config, jobs []Job) (*Report, error) {
	if len(jobs) == 0 {
		return nil, errors.New("fleet: empty batch")
	}
	for i, j := range jobs {
		if j.System == nil {
			return nil, fmt.Errorf("fleet: job %d has a nil System", i)
		}
		if j.Trials < 0 {
			return nil, fmt.Errorf("fleet: job %d has negative trials", i)
		}
		if j.Retries < 0 {
			return nil, fmt.Errorf("fleet: job %d has negative retries", i)
		}
		// Positively phrased so a NaN backoff is rejected too.
		if !(j.RetryBackoffSeconds >= 0) {
			return nil, fmt.Errorf("fleet: job %d has invalid retry backoff %v", i, j.RetryBackoffSeconds)
		}
	}

	start := time.Now() //lint:allow detrand wall-clock throughput reporting; feeds only WallSeconds/Throughput, never results
	var (
		results     []JobResult
		err         error
		schedRounds int
	)
	if cfg.Interleave {
		results, schedRounds = runInterleaved(ctx, cfg, jobs)
		err = ctx.Err()
	} else {
		results, err = Map(ctx, cfg.Workers, len(jobs), func(i int) JobResult {
			return runJob(ctx, cfg, i, jobs[i])
		})
	}
	wall := time.Since(start).Seconds() //lint:allow detrand wall-clock throughput reporting; feeds only WallSeconds/Throughput, never results

	// Unstarted slots (cancellation) come back zero-valued; mark them.
	for i := range results {
		if results[i].Job.System == nil {
			results[i] = JobResult{Job: jobs[i], Index: i, FailedAt: -1, Skipped: true, Transmissions: -1}
		}
	}
	rep := summarize(results)
	rep.WallSeconds = wall
	rep.SchedRounds = schedRounds
	if wall > 0 {
		rep.Throughput = float64(rep.Trials) / wall
	}
	return rep, err
}

// saltFor derives the session salt of trial `trial` of job `job` — the
// runner's whole seeding scheme, exposed so tests can replay any fleet
// trial as a single direct Run(WithSeedSalt(...)) call.
func saltFor(seed uint64, job, trial int) uint64 {
	return xrand.Combine(seed, uint64(job), uint64(trial))
}

// runJob runs one job's trials sequentially, deriving each trial's
// session salt from (seed, job index, trial index) alone.
func runJob(ctx context.Context, cfg Config, index int, job Job) JobResult {
	trials := job.Trials
	if trials == 0 {
		trials = 1
	}
	res := JobResult{Job: job, Index: index, FailedAt: -1}
	truth := float64(job.System.N())
	metered := false
	observer := obs.Multi(cfg.Observer, job.Observer)
	for t := 0; t < trials; t++ {
		if ctx.Err() != nil {
			break // keep what completed; Run reports the cancellation
		}
		est, err := runTrial(ctx, cfg, index, job, t, observer, &res)
		if err != nil {
			if ctx.Err() != nil {
				break // a cancelled batch never turns into per-job errors
			}
			if job.Retries > 0 {
				// Retries exhausted: the job degrades to the trials that
				// did complete instead of failing the batch.
				res.Degraded = true
				observer.Degraded(job.Estimator)
				break
			}
			res.Err = err
			res.Failure = err.Error()
			res.FailedAt = t
			break
		}
		if est.Saturated {
			// The accepted estimate is still a clamp artifact after every
			// allowed re-run — keep it (it is a genuine resolution bound)
			// but flag the degradation.
			res.Degraded = true
			res.DegradedTrials++
			observer.Degraded(job.Estimator)
		}
		res.Estimates = append(res.Estimates, est)
		res.AirSeconds += est.Seconds
		if est.TagTransmissions >= 0 {
			metered = true
			res.Transmissions += est.TagTransmissions
		}
		if truth > 0 {
			e := stats.RelError(est.N, truth)
			res.MeanAbsErr += e
			if e > res.MaxAbsErr {
				res.MaxAbsErr = e
			}
		}
	}
	if len(res.Estimates) > 0 {
		res.MeanAbsErr /= float64(len(res.Estimates))
	}
	if !metered {
		res.Transmissions = -1
	}
	return res
}

// runTrial runs one trial, re-running failed or saturated attempts within
// the job's retry budget. Attempt 0 uses the historical saltFor salt (so
// retry-free batches replay bit-identically against direct salted calls);
// attempt k > 0 extends the derivation with k. Each attempt runs under the
// batch context (a per-attempt deadline is an rfidest.WithTimeout in
// Job.Options). Backoff before attempt k charges RetryBackoffSeconds·2^(k−1)
// of simulated air time; no wall-clock sleep.
func runTrial(ctx context.Context, cfg Config, index int, job Job, t int, observer obs.Observer, res *JobResult) (rfidest.Estimate, error) {
	backoff := job.RetryBackoffSeconds
	for attempt := 0; ; attempt++ {
		salt := saltFor(cfg.Seed, index, t)
		if attempt > 0 {
			salt = xrand.Combine(cfg.Seed, uint64(index), uint64(t), uint64(attempt))
		}
		opts := append([]rfidest.Option{
			rfidest.WithEstimator(job.Estimator),
			rfidest.WithAccuracy(job.Epsilon, job.Delta),
			rfidest.WithSeedSalt(salt),
			rfidest.WithObserver(observer)}, job.Options...)
		est, err := job.System.Run(ctx, opts...)
		done := err == nil && !est.Saturated
		if done || attempt >= job.Retries || ctx.Err() != nil {
			return est, err
		}
		res.Retries++
		res.BackoffSeconds += backoff
		res.AirSeconds += backoff
		backoff *= 2
		observer.Retry(job.Estimator, attempt+1)
	}
}

// summarize folds job results into the batch-level Report.
func summarize(results []JobResult) *Report {
	rep := &Report{Jobs: results}
	var errs []float64
	for _, r := range results {
		switch {
		case r.Skipped:
			rep.Skipped++
		case r.Err != nil:
			rep.Failed++
		}
		if r.Degraded {
			rep.Degraded++
		}
		rep.Retries += r.Retries
		rep.AirSeconds += r.BackoffSeconds
		truth := float64(0)
		if r.Job.System != nil {
			truth = float64(r.Job.System.N())
		}
		for _, est := range r.Estimates {
			rep.Trials++
			rep.AirSeconds += est.Seconds
			if truth > 0 {
				errs = append(errs, stats.RelError(est.N, truth))
			}
		}
	}
	if len(errs) > 0 {
		sum := 0.0
		for _, e := range errs {
			sum += e
		}
		rep.MeanAbsErr = sum / float64(len(errs))
		sort.Float64s(errs)
		rep.P50AbsErr = stats.Quantile(errs, 0.50)
		rep.P90AbsErr = stats.Quantile(errs, 0.90)
		rep.P99AbsErr = stats.Quantile(errs, 0.99)
		rep.MaxAbsErr = errs[len(errs)-1]
	}
	return rep
}

// GroupStat is an aggregate over the jobs sharing one estimator.
type GroupStat struct {
	Estimator  string
	Jobs       int
	Trials     int
	Failed     int
	Degraded   int
	Retries    int
	MeanAbsErr float64
	P90AbsErr  float64
	AirSeconds float64
}

// PerEstimator groups the report's completed trials by estimator name,
// sorted by name — the breakdown the fleet CLI prints.
func (rep *Report) PerEstimator() []GroupStat {
	byName := map[string]*GroupStat{}
	errsByName := map[string][]float64{}
	for _, r := range rep.Jobs {
		if r.Skipped {
			continue
		}
		g := byName[r.Job.Estimator]
		if g == nil {
			g = &GroupStat{Estimator: r.Job.Estimator}
			byName[r.Job.Estimator] = g
		}
		g.Jobs++
		if r.Err != nil {
			g.Failed++
		}
		if r.Degraded {
			g.Degraded++
		}
		g.Retries += r.Retries
		g.Trials += len(r.Estimates)
		g.AirSeconds += r.AirSeconds
		truth := float64(r.Job.System.N())
		for _, est := range r.Estimates {
			if truth > 0 {
				errsByName[r.Job.Estimator] = append(errsByName[r.Job.Estimator], stats.RelError(est.N, truth))
			}
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]GroupStat, 0, len(names))
	for _, name := range names {
		g := byName[name]
		if errs := errsByName[name]; len(errs) > 0 {
			sum := 0.0
			for _, e := range errs {
				sum += e
			}
			g.MeanAbsErr = sum / float64(len(errs))
			sort.Float64s(errs)
			g.P90AbsErr = stats.Quantile(errs, 0.90)
		}
		out = append(out, *g)
	}
	return out
}
