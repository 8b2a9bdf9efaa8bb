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

// faultedBatch is a healthy job estimating through a lossy channel under
// WithRetry, an all-idle job whose every round saturates (so it must
// degrade, not fail), and a clean control job with no faults and no
// retries.
func faultedBatch() []Job {
	lossy := rfidest.NewSystem(20000, rfidest.WithSeed(91),
		rfidest.WithFaults(rfidest.FaultSeverity(0.5)))
	empty := rfidest.NewSystem(0, rfidest.WithSeed(92))
	clean := rfidest.NewSystem(15000, rfidest.WithSeed(93))
	return []Job{
		{Name: "lossy", System: lossy, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
			Trials: 3, Options: []rfidest.Option{rfidest.WithRetry(2, 0)}},
		{Name: "empty", System: empty, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
			Trials: 2, Options: []rfidest.Option{rfidest.WithRetry(1, 0)}},
		{Name: "clean", System: clean, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
			Trials: 2},
	}
}

// TestRunFaultedBatchDegradesInsteadOfFailing: with faults and WithRetry
// on, a mixed batch completes with zero failed jobs, Degraded is set
// exactly on the jobs whose estimates stayed saturated, and the
// observer's fault/retry counters replay bit-identically across two
// identical runs.
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
	// Every round saturates, so each trial burns its one retry.
	if empty.Retries != 2 {
		t.Fatalf("empty job retries = %d, want 2", empty.Retries)
	}
	for _, est := range empty.Estimates {
		if !est.Saturated || est.Retries != 1 {
			t.Fatalf("accepted empty-population estimate: saturated=%v retries=%d, want true/1", est.Saturated, est.Retries)
		}
	}

	clean := byName["clean"]
	if clean.Degraded || clean.Retries != 0 {
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

// TestRunAttemptTimeout pins the per-trial deadline a job sets with
// rfidest.WithTimeout in Job.Options, in both scheduling modes: an expired
// deadline fails the trial at its first round boundary, and fails the job
// with or without WithRetry; a negative deadline is a per-job failure from
// rfidest's own validation — and a generous deadline is inert.
func TestRunAttemptTimeout(t *testing.T) {
	sys := rfidest.NewSystem(5000, rfidest.WithSeed(94))
	job := Job{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2}
	timed := func(j Job, d time.Duration, opts ...rfidest.Option) Job {
		j.Options = append([]rfidest.Option{rfidest.WithTimeout(d)}, opts...)
		return j
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
		if !reflect.DeepEqual(stripWall(base), stripWall(roomy)) {
			t.Fatalf("interleave=%v: a generous trial timeout perturbed results", interleave)
		}

		// A deadline that expires before the first round fails the job at
		// trial 0 ...
		rep, err := Run(context.Background(), cfg, []Job{timed(job, time.Nanosecond)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 1 || !errors.Is(rep.Jobs[0].Err, context.DeadlineExceeded) || rep.Jobs[0].FailedAt != 0 {
			t.Fatalf("interleave=%v: timeout without retries should fail the job: %+v", interleave, rep.Jobs[0])
		}
		// ... and WithRetry does not change that: an expired deadline is no
		// saturated round, so nothing is re-run. The job fails without
		// poisoning the batch or its sibling.
		rep, err = Run(context.Background(), cfg, []Job{timed(job, time.Nanosecond, rfidest.WithRetry(2, 0)), job})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 1 || !errors.Is(rep.Jobs[0].Err, context.DeadlineExceeded) || rep.Jobs[0].FailedAt != 0 {
			t.Fatalf("interleave=%v: timeout under WithRetry should fail the job: %+v", interleave, rep.Jobs[0])
		}
		if rep.Jobs[0].Degraded || rep.Jobs[0].Retries != 0 || len(rep.Jobs[0].Estimates) != 0 {
			t.Fatalf("interleave=%v: timed-out job must not degrade or retry: %+v", interleave, rep.Jobs[0])
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

// TestRunRetryValidation: WithRetry arguments rfidest rejects fail that
// job at trial 0 with rfidest's validation error, not the batch, and the
// sibling job runs on.
func TestRunRetryValidation(t *testing.T) {
	sys := rfidest.NewSystem(100, rfidest.WithSeed(1))
	for _, bad := range []rfidest.Option{rfidest.WithRetry(-1, 0), rfidest.WithRetry(1, nan())} {
		rep, err := Run(context.Background(), Config{}, []Job{
			{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Options: []rfidest.Option{bad}},
			{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1},
		})
		if err != nil {
			t.Fatalf("an invalid retry option failed the batch: %v", err)
		}
		if rep.Failed != 1 || rep.Jobs[0].FailedAt != 0 || !strings.Contains(rep.Jobs[0].Failure, "retry") {
			t.Fatalf("an invalid retry option should fail its job: %+v", rep.Jobs[0])
		}
		if rep.Jobs[1].Err != nil || len(rep.Jobs[1].Estimates) != 1 {
			t.Fatalf("sibling job perturbed by an invalid retry option: %+v", rep.Jobs[1])
		}
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestRunRetryAccounting: WithRetry in Job.Options is the job's one retry
// path, and each of its counts lands once. JobResult.Retries is the sum of
// the trials' Estimate.Retries, the registry counts each retry and each
// saturated trial once, AirSeconds covers every attempt, and a misspelled
// estimator fails its job under a retry option like without one.
func TestRunRetryAccounting(t *testing.T) {
	lossy := rfidest.NewSystem(20000, rfidest.WithSeed(91), rfidest.WithFaults(rfidest.FaultSeverity(0.5)))
	jobs := []Job{
		{Name: "empty", System: rfidest.NewSystem(0, rfidest.WithSeed(92)), Estimator: "BFCE",
			Epsilon: 0.1, Delta: 0.1, Trials: 2, Options: []rfidest.Option{rfidest.WithRetry(2, 0)}},
		{Name: "lossy", System: lossy, Estimator: "BFCE",
			Epsilon: 0.1, Delta: 0.1, Trials: 3, Options: []rfidest.Option{rfidest.WithRetry(2, 0)}},
		{Name: "misspelled", System: lossy, Estimator: "BFEC",
			Epsilon: 0.1, Delta: 0.1, Trials: 2, Options: []rfidest.Option{rfidest.WithRetry(1, 0)}},
	}
	for _, interleave := range []bool{false, true} {
		reg := obs.NewRegistry()
		rep, err := Run(context.Background(), Config{Seed: 0xacc7, Observer: reg, Interleave: interleave}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		degradedTrials, air := 0, 0.0
		for _, r := range rep.Jobs {
			retries, jobAir := 0, 0.0
			for _, est := range r.Estimates {
				retries += est.Retries
				jobAir += est.Seconds
				air += est.Seconds
			}
			if r.Retries != retries || r.AirSeconds != jobAir {
				t.Errorf("interleave=%v: job %s retries/air %d/%v, estimates sum to %d/%v",
					interleave, r.Label(), r.Retries, r.AirSeconds, retries, jobAir)
			}
			degradedTrials += r.DegradedTrials
		}
		snap := reg.Snapshot()
		if snap.Retries != int64(rep.Retries) || snap.Degraded != int64(degradedTrials) {
			t.Errorf("interleave=%v: registry retries/degraded %d/%d, report %d/%d",
				interleave, snap.Retries, snap.Degraded, rep.Retries, degradedTrials)
		}
		if rep.AirSeconds != air {
			t.Errorf("interleave=%v: report air %v s, estimates sum to %v s", interleave, rep.AirSeconds, air)
		}
		// Every round of the empty job saturates: both retries of both
		// trials run, and both trials stay saturated.
		if empty := rep.Jobs[0]; empty.Retries != 4 || empty.DegradedTrials != 2 || empty.Err != nil {
			t.Errorf("interleave=%v: empty job %+v, want 4 retries and 2 degraded trials", interleave, empty)
		}
		bad := rep.Jobs[2]
		if bad.Err == nil || bad.FailedAt != 0 || bad.Degraded || !strings.Contains(bad.Failure, "unknown estimator") {
			t.Errorf("interleave=%v: misspelled job should fail at trial 0: %+v", interleave, bad)
		}
	}
}

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
