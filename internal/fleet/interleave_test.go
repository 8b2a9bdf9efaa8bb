package fleet

import (
	"context"
	"reflect"
	"testing"
	"time"

	"rfidest"
)

// stripSched removes the wall-clock fields and the scheduler round count —
// everything else in a Report must be bit-identical between the pooled and
// interleaved execution modes.
func stripSched(rep *Report) *Report {
	c := *stripWall(rep)
	c.SchedRounds = 0
	return &c
}

// TestInterleavedMatchesPooled: interleaving is a schedule, not a
// semantics — per-trial salts pin every session, so breadth-first
// execution must reproduce the pooled Report exactly.
func TestInterleavedMatchesPooled(t *testing.T) {
	jobs := mixedBatch(t)
	// Exercise the retry path under the scheduler too.
	jobs = append(jobs, Job{
		System:    rfidest.NewSystem(15000, rfidest.WithSeed(9), rfidest.WithSynthetic()),
		Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2,
		Retries: 2, RetryBackoffSeconds: 0.25,
	})
	ctx := context.Background()
	pooled, err := Run(ctx, Config{Seed: 0xf1ee7, Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := Run(ctx, Config{Seed: 0xf1ee7, Interleave: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripSched(pooled), stripSched(inter)) {
		t.Fatalf("interleaved report differs from pooled:\npooled %+v\ninter  %+v",
			stripSched(pooled), stripSched(inter))
	}
	if pooled.SchedRounds != 0 {
		t.Errorf("pooled mode reported %d scheduler rounds", pooled.SchedRounds)
	}
	if inter.SchedRounds < inter.Trials {
		t.Errorf("scheduler rounds %d below trial count %d — every trial is at least one round",
			inter.SchedRounds, inter.Trials)
	}
}

// TestInterleaveSeedChangesScheduleNotResults: the scheduler seed permutes
// the visit order only; estimates depend on per-trial salts alone.
func TestInterleaveSeedChangesScheduleNotResults(t *testing.T) {
	jobs := mixedBatch(t)
	ctx := context.Background()
	a, err := Run(ctx, Config{Seed: 0xf1ee7, Interleave: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, Config{Seed: 0xf1ee7, Interleave: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
		t.Fatal("same seed, different interleaved reports")
	}
}

// TestInterleaveCancelledBeforeStart: a pre-cancelled batch skips every
// job, like the pooled path.
func TestInterleaveCancelledBeforeStart(t *testing.T) {
	jobs := mixedBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Config{Interleave: true}, jobs)
	if err == nil {
		t.Fatal("cancelled interleaved run returned nil error")
	}
	if rep == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	if rep.Skipped != len(jobs) {
		t.Fatalf("skipped %d of %d jobs", rep.Skipped, len(jobs))
	}
	for _, r := range rep.Jobs {
		if !r.Skipped || r.Err != nil || len(r.Estimates) != 0 {
			t.Fatalf("job %d: %+v", r.Index, r)
		}
	}
}

// TestInterleaveCancelledMidRun: cancellation mid-schedule keeps completed
// trials, raises no per-job errors, and still returns a coherent report.
func TestInterleaveCancelledMidRun(t *testing.T) {
	jobs := mixedBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from a watchdog once the scheduler is certainly mid-batch:
	// the run below takes hundreds of milliseconds of CPU.
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	rep, err := Run(ctx, Config{Interleave: true}, jobs)
	if err == nil {
		// The batch won the race; nothing to assert beyond coherence.
		t.Skip("batch finished before cancellation")
	}
	if rep == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	completed := 0
	for _, r := range rep.Jobs {
		if r.Err != nil {
			t.Errorf("job %d: cancellation surfaced as a job error: %v", r.Index, r.Err)
		}
		completed += len(r.Estimates)
	}
	if completed != rep.Trials {
		t.Errorf("report counts %d trials, jobs hold %d estimates", rep.Trials, completed)
	}
}

// benchJobs builds the 8-session batch the scheduler benchmark drives.
func benchJobs() []Job {
	sys := rfidest.NewSystem(50000, rfidest.WithSeed(11), rfidest.WithSynthetic())
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2}
	}
	return jobs
}

// BenchmarkSchedSequential is the baseline: the same 8-session batch on
// one pooled worker (depth-first, session after session).
func BenchmarkSchedSequential(b *testing.B) {
	jobs := benchJobs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{Seed: 3, Workers: 1}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedInterleaved runs the batch breadth-first on the round
// scheduler — the per-round dispatch overhead is the price under test.
func BenchmarkSchedInterleaved(b *testing.B) {
	jobs := benchJobs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{Seed: 3, Interleave: true}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}
