package fleet

import (
	"context"

	"rfidest/internal/sched"
)

// runInterleaved executes the whole batch on the deterministic round
// scheduler: every job becomes one jobRunner, whose Step advances its
// current trial by one protocol round, and the scheduler rotates through
// the jobs breadth-first. The runners are the ones pooled mode steps to
// completion, so the resulting JobResults are bit-identical to its own.
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
