package fleet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"rfidest"
	"rfidest/internal/obs"
)

// faultedBatch is the acceptance workload from the issue: a healthy job
// estimating through a lossy channel with retries, an all-idle job whose
// every attempt saturates (so it must degrade, not fail), and a clean
// control job with no faults and no retries.
func faultedBatch() []Job {
	lossy := rfidest.NewSystem(20000, rfidest.WithSeed(91),
		rfidest.WithFaults(rfidest.FaultSeverity(0.5)))
	empty := rfidest.NewSystem(0, rfidest.WithSeed(92))
	clean := rfidest.NewSystem(15000, rfidest.WithSeed(93))
	return []Job{
		{Name: "lossy", System: lossy, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
			Trials: 3, Retries: 2, RetryBackoffSeconds: 0.25},
		{Name: "empty", System: empty, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
			Trials: 2, Retries: 1, RetryBackoffSeconds: 0.5},
		{Name: "clean", System: clean, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
			Trials: 2},
	}
}

// TestRunFaultedBatchDegradesInsteadOfFailing is the tentpole acceptance
// test: with faults and retries on, a mixed batch completes with zero
// failed jobs, Degraded is set exactly on the jobs whose retries were
// exhausted, and the observer's fault/retry counters replay
// bit-identically across two identical runs.
func TestRunFaultedBatchDegradesInsteadOfFailing(t *testing.T) {
	run := func() (*Report, obs.Snapshot) {
		reg := obs.NewRegistry()
		rep, err := Run(context.Background(),
			Config{Seed: 0xfa17, Workers: 3, Observer: reg}, faultedBatch())
		if err != nil {
			t.Fatal(err)
		}
		return rep, reg.Snapshot()
	}
	rep, snap := run()

	if rep.Failed != 0 || rep.Skipped != 0 {
		t.Fatalf("faulted batch must not fail jobs: failed=%d skipped=%d", rep.Failed, rep.Skipped)
	}
	byName := map[string]JobResult{}
	for _, r := range rep.Jobs {
		if r.Err != nil {
			t.Fatalf("job %s errored: %v", r.Label(), r.Err)
		}
		byName[r.Label()] = r
	}

	empty := byName["empty"]
	if !empty.Degraded {
		t.Fatal("all-idle job with exhausted retries must be Degraded")
	}
	if empty.DegradedTrials != 2 || len(empty.Estimates) != 2 {
		t.Fatalf("empty job: degraded trials %d / estimates %d, want 2/2", empty.DegradedTrials, len(empty.Estimates))
	}
	// Every attempt saturates, so each trial burns its full retry budget.
	if empty.Retries != 2*empty.Job.Retries {
		t.Fatalf("empty job retries = %d, want %d", empty.Retries, 2*empty.Job.Retries)
	}
	// One 0.5 s backoff per trial (Retries = 1, so no exponential step).
	if empty.BackoffSeconds != 1.0 {
		t.Fatalf("empty job backoff = %v s, want 1.0", empty.BackoffSeconds)
	}
	for _, est := range empty.Estimates {
		if !est.Saturated {
			t.Fatal("accepted empty-population estimate lost its Saturated flag")
		}
	}

	clean := byName["clean"]
	if clean.Degraded || clean.Retries != 0 || clean.BackoffSeconds != 0 {
		t.Fatalf("clean control job picked up degradation state: %+v", clean)
	}

	lossy := byName["lossy"]
	if len(lossy.Estimates) != 3 {
		t.Fatalf("lossy job completed %d trials, want 3", len(lossy.Estimates))
	}

	if want := lossy.Retries + empty.Retries; rep.Retries != want {
		t.Fatalf("report retries = %d, want %d", rep.Retries, want)
	}
	wantDegraded := 0
	for _, r := range rep.Jobs {
		if r.Degraded {
			wantDegraded++
		}
	}
	if rep.Degraded != wantDegraded || !empty.Degraded {
		t.Fatalf("report degraded = %d, want %d", rep.Degraded, wantDegraded)
	}

	// The injector's schedule is a pure function of (seed, plan, salts):
	// the observer's fault and retry counters must replay bit-identically.
	if snap.Faults.Frames == 0 || snap.Faults.Sessions == 0 {
		t.Fatalf("lossy job reported no fault activity: %+v", snap.Faults)
	}
	if snap.Retries != int64(rep.Retries) {
		t.Fatalf("registry retries %d != report retries %d", snap.Retries, rep.Retries)
	}
	rep2, snap2 := run()
	if !reflect.DeepEqual(stripWall(rep), stripWall(rep2)) {
		t.Fatal("faulted batch is not deterministic across runs")
	}
	if !reflect.DeepEqual(snap.Faults, snap2.Faults) {
		t.Fatalf("fault counters differ across identical runs:\n%+v\n%+v", snap.Faults, snap2.Faults)
	}
	if snap.Retries != snap2.Retries || snap.Degraded != snap2.Degraded {
		t.Fatal("retry/degraded counters differ across identical runs")
	}
}

// TestRunFaultedBatchDeterministicAcrossWorkers extends the worker-count
// determinism contract to the retrying, fault-injecting configuration.
func TestRunFaultedBatchDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Seed: 0xfa17, Workers: 1}
	seq, err := Run(context.Background(), cfg, faultedBatch())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(context.Background(), cfg, faultedBatch())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(seq), stripWall(par)) {
		t.Fatal("faulted batch differs across worker counts")
	}
}

// TestRunAttemptTimeout pins the per-attempt deadline a job sets with
// rfidest.WithTimeout in Job.Options, in both scheduling modes: an expired
// deadline fails the attempt at its first round boundary; with retries the
// job degrades, without them it fails; a negative deadline is a per-job
// failure from rfidest's own validation — and a generous deadline is inert.
func TestRunAttemptTimeout(t *testing.T) {
	sys := rfidest.NewSystem(5000, rfidest.WithSeed(94))
	job := Job{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2}
	timed := func(j Job, d time.Duration) Job {
		j.Options = []rfidest.Option{rfidest.WithTimeout(d)}
		return j
	}
	// Options hold closures, which never compare equal; drop them so the
	// rest of the report can be compared whole.
	noOptions := func(rep *Report) *Report {
		c := stripWall(rep)
		c.Jobs = append([]JobResult(nil), rep.Jobs...)
		for i := range c.Jobs {
			c.Jobs[i].Job.Options = nil
		}
		return c
	}
	for _, interleave := range []bool{false, true} {
		cfg := Config{Seed: 9, Interleave: interleave}
		base, err := Run(context.Background(), cfg, []Job{job})
		if err != nil {
			t.Fatal(err)
		}
		roomy, err := Run(context.Background(), cfg, []Job{timed(job, time.Hour)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(noOptions(base), noOptions(roomy)) {
			t.Fatalf("interleave=%v: a generous trial timeout perturbed results", interleave)
		}

		// A deadline that expires before the first round: without retries
		// the job fails at trial 0 ...
		rep, err := Run(context.Background(), cfg, []Job{timed(job, time.Nanosecond)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 1 || !errors.Is(rep.Jobs[0].Err, context.DeadlineExceeded) || rep.Jobs[0].FailedAt != 0 {
			t.Fatalf("interleave=%v: timeout without retries should fail the job: %+v", interleave, rep.Jobs[0])
		}
		// ... and with retries it degrades instead, completing no trials but
		// poisoning neither the batch nor sibling jobs.
		retrying := timed(job, time.Nanosecond)
		retrying.Retries = 2
		rep, err = Run(context.Background(), cfg, []Job{retrying, job})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("interleave=%v: timeout with retries must not fail the job: %+v", interleave, rep.Jobs[0])
		}
		if !rep.Jobs[0].Degraded || rep.Jobs[0].Err != nil || len(rep.Jobs[0].Estimates) != 0 {
			t.Fatalf("interleave=%v: timeout with retries should degrade: %+v", interleave, rep.Jobs[0])
		}
		pair, err := Run(context.Background(), cfg, []Job{job, job})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Jobs[1].Estimates, pair.Jobs[1].Estimates) {
			t.Fatalf("interleave=%v: sibling job perturbed by a timed-out job", interleave)
		}

		// A negative deadline never reaches a round: rfidest rejects it, and
		// the rejection is the job's failure, not the batch's.
		rep, err = Run(context.Background(), cfg, []Job{timed(job, -time.Second)})
		if err != nil {
			t.Fatalf("interleave=%v: negative trial timeout failed the batch: %v", interleave, err)
		}
		if rep.Failed != 1 || rep.Jobs[0].FailedAt != 0 || !strings.Contains(rep.Jobs[0].Failure, "negative run timeout") {
			t.Fatalf("interleave=%v: negative trial timeout should fail the job: %+v", interleave, rep.Jobs[0])
		}
	}
}

// TestRunRetryValidation: degenerate job retry parameters are rejected
// before any trial runs.
func TestRunRetryValidation(t *testing.T) {
	sys := rfidest.NewSystem(100, rfidest.WithSeed(1))
	bad := []Job{{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Retries: -1}}
	if _, err := Run(context.Background(), Config{}, bad); err == nil {
		t.Fatal("negative retries accepted")
	}
	nanBackoff := []Job{{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
		RetryBackoffSeconds: nan()}}
	if _, err := Run(context.Background(), Config{}, nanBackoff); err == nil {
		t.Fatal("NaN retry backoff accepted")
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestPerEstimatorCountsDegradation: the CLI's per-estimator breakdown
// carries the new degradation counters.
func TestPerEstimatorCountsDegradation(t *testing.T) {
	rep, err := Run(context.Background(), Config{Seed: 0xfa17}, faultedBatch())
	if err != nil {
		t.Fatal(err)
	}
	groups := rep.PerEstimator()
	if len(groups) != 1 || groups[0].Estimator != "BFCE" {
		t.Fatalf("unexpected groups: %+v", groups)
	}
	if groups[0].Degraded != rep.Degraded || groups[0].Retries != rep.Retries {
		t.Fatalf("group degradation accounting diverges from report: %+v vs %+v", groups[0], rep)
	}
}
