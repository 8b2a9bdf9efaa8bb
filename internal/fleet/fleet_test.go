package fleet

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"rfidest"
)

// mixedBatch builds a small mixed workload: shared and private Systems of
// several variants crossed with two estimators.
func mixedBatch(t testing.TB) []Job {
	t.Helper()
	shared := rfidest.NewSystem(30000, rfidest.WithSeed(5), rfidest.WithSynthetic())
	tagLevel := rfidest.NewSystem(20000, rfidest.WithSeed(6))
	noisy := rfidest.NewSystem(25000, rfidest.WithSeed(7), rfidest.WithNoise(0.001, 0.001))
	var jobs []Job
	for _, est := range []string{"BFCE", "SRC"} {
		jobs = append(jobs,
			Job{System: shared, Estimator: est, Epsilon: 0.1, Delta: 0.1, Trials: 3},
			Job{System: shared, Estimator: est, Epsilon: 0.2, Delta: 0.1, Trials: 2},
			Job{System: tagLevel, Estimator: est, Epsilon: 0.1, Delta: 0.1, Trials: 2},
			Job{System: noisy, Estimator: est, Epsilon: 0.1, Delta: 0.1, Trials: 2},
		)
	}
	return jobs
}

// stripWall zeroes the wall-clock fields, which are the only parts of a
// Report allowed to differ across worker counts.
func stripWall(rep *Report) *Report {
	c := *rep
	c.WallSeconds = 0
	c.Throughput = 0
	return &c
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := mixedBatch(t)
	cfg := Config{Seed: 0xf1ee7, Workers: 1}
	seq, err := Run(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		cfg.Workers = workers
		par, err := Run(context.Background(), cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripWall(seq), stripWall(par)) {
			t.Fatalf("workers=%d: report differs from sequential run", workers)
		}
	}
}

func TestRunAccuracyAndAccounting(t *testing.T) {
	jobs := mixedBatch(t)
	rep, err := Run(context.Background(), Config{Seed: 42}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantTrials := 0
	for _, j := range jobs {
		wantTrials += j.Trials
	}
	if rep.Trials != wantTrials {
		t.Fatalf("trials %d, want %d", rep.Trials, wantTrials)
	}
	if rep.Failed != 0 || rep.Skipped != 0 {
		t.Fatalf("failed=%d skipped=%d", rep.Failed, rep.Skipped)
	}
	// ε ≤ 0.2, δ = 0.1 jobs: the batch mean must be far inside 50%.
	if rep.MeanAbsErr <= 0 || rep.MeanAbsErr > 0.2 {
		t.Fatalf("mean |err| = %v", rep.MeanAbsErr)
	}
	if rep.MaxAbsErr < rep.P90AbsErr || rep.P90AbsErr < rep.P50AbsErr {
		t.Fatalf("quantiles out of order: p50=%v p90=%v max=%v", rep.P50AbsErr, rep.P90AbsErr, rep.MaxAbsErr)
	}
	if rep.AirSeconds <= 0 {
		t.Fatal("no simulated air time accounted")
	}
	if rep.WallSeconds <= 0 || rep.Throughput <= 0 {
		t.Fatalf("wall=%v throughput=%v", rep.WallSeconds, rep.Throughput)
	}
	for _, r := range rep.Jobs {
		if len(r.Estimates) != r.Job.Trials {
			t.Fatalf("job %d: %d estimates, want %d", r.Index, len(r.Estimates), r.Job.Trials)
		}
		if r.Label() == "" {
			t.Fatalf("job %d: empty label", r.Index)
		}
	}
	groups := rep.PerEstimator()
	if len(groups) != 2 || groups[0].Estimator != "BFCE" || groups[1].Estimator != "SRC" {
		t.Fatalf("unexpected estimator groups: %+v", groups)
	}
	for _, g := range groups {
		if g.Trials != wantTrials/2 || g.Jobs != len(jobs)/2 {
			t.Fatalf("group %s: %+v", g.Estimator, g)
		}
	}
}

func TestRunCollectsPerJobErrors(t *testing.T) {
	sys := rfidest.NewSystem(10000, rfidest.WithSeed(9), rfidest.WithSynthetic())
	jobs := []Job{
		{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		{System: sys, Estimator: "no-such-estimator", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1}, // Trials 0 → 1
	}
	rep, err := Run(context.Background(), Config{Seed: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed=%d, want 1", rep.Failed)
	}
	bad := rep.Jobs[1]
	if bad.Err == nil || bad.FailedAt != 0 || len(bad.Estimates) != 0 {
		t.Fatalf("bad job result: %+v", bad)
	}
	if rep.Jobs[0].Err != nil || rep.Jobs[2].Err != nil {
		t.Fatal("sibling jobs must not inherit the failure")
	}
	if got := len(rep.Jobs[2].Estimates); got != 1 {
		t.Fatalf("Trials=0 ran %d trials, want 1", got)
	}
	if rep.Trials != 3 {
		t.Fatalf("completed trials %d, want 3", rep.Trials)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, nil); err == nil {
		t.Fatal("empty batch must error")
	}
	if _, err := Run(context.Background(), Config{}, []Job{{Estimator: "BFCE"}}); err == nil {
		t.Fatal("nil System must error")
	}
	sys := rfidest.NewSystem(100, rfidest.WithSynthetic())
	if _, err := Run(context.Background(), Config{}, []Job{{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: -1}}); err == nil {
		t.Fatal("negative trials must error")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := rfidest.NewSystem(10000, rfidest.WithSeed(3), rfidest.WithSynthetic())
	jobs := []Job{
		{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2},
	}
	rep, err := Run(ctx, Config{Workers: 1, Seed: 1}, jobs)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled Run must still return the partial report")
	}
	if rep.Trials != 0 {
		t.Fatalf("upfront cancellation completed %d trials", rep.Trials)
	}
	if rep.Skipped != len(jobs) {
		t.Fatalf("skipped=%d, want %d", rep.Skipped, len(jobs))
	}
}

// TestRunMatchesDirectSaltedCalls pins the runner's seeding scheme: trial
// t of job i must be exactly System.Run under WithSeedSalt(Combine(seed,
// i, t)) — so fleet results are reproducible outside the fleet, one call
// at a time.
func TestRunMatchesDirectSaltedCalls(t *testing.T) {
	sys := rfidest.NewSystem(20000, rfidest.WithSeed(77), rfidest.WithSynthetic())
	jobs := []Job{{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 4}}
	const seed = 0xabcde
	rep, err := Run(context.Background(), Config{Seed: seed}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for trial, got := range rep.Jobs[0].Estimates {
		want, err := sys.Run(context.Background(), rfidest.WithEstimator("BFCE"), rfidest.WithAccuracy(0.1, 0.1), rfidest.WithSeedSalt(saltFor(seed, 0, trial)))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: fleet %+v != direct %+v", trial, got, want)
		}
	}
}
