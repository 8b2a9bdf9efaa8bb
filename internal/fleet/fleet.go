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
	// Options are extra rfidest run options appended after the ones the
	// runner derives from the fields above (estimator, accuracy, trial
	// salt, observer) — the unified option path the serving layer marshals
	// requests onto. Because options apply in order, an option here
	// overrides its field-derived counterpart: rfidest.WithSeedSalt pins
	// every trial of the job to that one session (Trials > 1 then re-runs
	// one bit-identical session), rfidest.WithTimeout bounds each trial,
	// rfidest.WithRetry re-runs a trial's saturated rounds inside its
	// session (the job's only retry path), and rfidest.WithEstimator /
	// rfidest.WithAccuracy shadow the Estimator / Epsilon / Delta fields.
	// Options must be pure (stateless closures): they are re-applied on
	// every trial.
	Options []rfidest.Option `json:"-"`
}

// JobResult is the outcome of one Job.
type JobResult struct {
	Job   Job `json:"job"`
	Index int `json:"index"` // position in the submitted batch

	// Estimates holds one entry per completed trial, in trial order.
	Estimates []rfidest.Estimate `json:"estimates,omitempty"`
	// Err is the first trial error; trials after a failure are not run.
	// FailedAt is that trial's index (-1 when Err is nil). Batch
	// cancellation never lands here: the job keeps the trials that
	// completed. Err itself does not marshal; Failure carries its message
	// on the wire.
	Err      error  `json:"-"`
	Failure  string `json:"failure,omitempty"`
	FailedAt int    `json:"failedAt"`
	// Skipped is set when cancellation struck before the job started.
	Skipped bool `json:"skipped,omitempty"`

	// Degraded reports that at least one trial's estimate was saturated —
	// a clamp artifact kept as a resolution bound, after any WithRetry
	// re-runs. DegradedTrials counts those trials.
	Degraded       bool `json:"degraded,omitempty"`
	DegradedTrials int  `json:"degradedTrials,omitempty"`
	// Retries is the sum of the trials' Estimate.Retries: the saturated
	// rounds a WithRetry in Job.Options re-ran.
	Retries int `json:"retries,omitempty"`

	// MeanAbsErr and MaxAbsErr summarize |n̂−n|/n over the completed
	// trials against the System's ground truth (NaN-free: 0 when no trial
	// completed).
	MeanAbsErr float64 `json:"meanAbsErr"`
	MaxAbsErr  float64 `json:"maxAbsErr"`
	// AirSeconds is the total simulated air time of the completed trials,
	// every WithRetry attempt included.
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
	Retries  int `json:"retries,omitempty"`  // WithRetry re-runs across all jobs

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
	// Interleave selects the scheduler-backed batch mode: instead of pool
	// workers stepping each job to completion, a single deterministic
	// round scheduler (internal/sched) advances every job one protocol
	// round per scheduling epoch — the breadth-first schedule a fleet of
	// readers sharing one medium would follow. Both modes step the same
	// per-job runner and trials within a job stay sequential, so the
	// Report is bit-identical to the pooled mode's: same salts, same
	// folds, same estimates. Report.SchedRounds counts the rounds the
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
			j := newJobRunner(cfg, i, jobs[i])
			for {
				if done, _ := j.Step(ctx); done {
					return j.res
				}
			}
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

// jobRunner is the one loop that runs a job's trials: each Step executes
// one protocol round of the current trial, and a finished trial folds into
// the JobResult. Pooled mode steps it to completion on a Map worker;
// interleaved mode hands it to sched.Interleave. Trial t runs over the
// session addressed by saltFor(seed, job, t), so both modes produce the
// same JobResult.
type jobRunner struct {
	cfg    Config
	index  int
	job    Job
	trials int
	truth  float64

	res     JobResult
	metered bool

	t  int // current trial
	rs *rfidest.RunSession

	started bool // at least one Step ran
	done    bool // the job folded (all trials, first failure, or cancellation)
}

func newJobRunner(cfg Config, index int, job Job) *jobRunner {
	trials := job.Trials
	if trials == 0 {
		trials = 1
	}
	return &jobRunner{
		cfg:    cfg,
		index:  index,
		job:    job,
		trials: trials,
		truth:  float64(job.System.N()),
		res:    JobResult{Job: job, Index: index, FailedAt: -1},
	}
}

// Step implements sched.Runner: it opens the current trial's session if
// none is in flight, then executes exactly one protocol round. Its error
// is always nil; a trial error is the job's, kept in the JobResult.
func (j *jobRunner) Step(ctx context.Context) (bool, error) {
	if j.done {
		return true, nil
	}
	j.started = true
	if j.rs == nil {
		if ctx.Err() != nil {
			return j.finish(), nil // keep what completed; Run reports the cancellation
		}
		rs, err := j.job.System.StartRun(append([]rfidest.Option{
			rfidest.WithEstimator(j.job.Estimator),
			rfidest.WithAccuracy(j.job.Epsilon, j.job.Delta),
			rfidest.WithSeedSalt(saltFor(j.cfg.Seed, j.index, j.t)),
			rfidest.WithObserver(j.cfg.Observer)}, j.job.Options...)...)
		if err != nil {
			return j.trialDone(ctx, rfidest.Estimate{}, err), nil
		}
		j.rs = rs
	}
	if done, _ := j.rs.Step(ctx); !done {
		return false, nil
	}
	est, err := j.rs.Result()
	j.rs = nil
	return j.trialDone(ctx, est, err), nil
}

// trialDone folds one finished trial into the JobResult and reports
// whether the whole job is done. An error fails the job unless the batch
// was cancelled; a saturated estimate is kept but degrades the job.
func (j *jobRunner) trialDone(ctx context.Context, est rfidest.Estimate, err error) bool {
	if err != nil {
		if ctx.Err() == nil { // a cancelled batch never turns into per-job errors
			j.res.Err = err
			j.res.Failure = err.Error()
			j.res.FailedAt = j.t
		}
		return j.finish()
	}
	if est.Saturated {
		j.res.Degraded = true
		j.res.DegradedTrials++
	}
	j.res.Retries += est.Retries
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

// finish seals the JobResult and always reports done.
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
