package rfidest

import (
	"context"
	"math"
	"sync"
	"testing"

	"rfidest/internal/obs"
)

// injectorPlans isolates each fault injector plus the combined severity
// knob, so every property below is checked per injector.
func injectorPlans() map[string]FaultPlan {
	return map[string]FaultPlan{
		"burst":    {BurstFlipGood: 0.002, BurstFlipBad: 0.3, BurstPGB: 0.02, BurstPBG: 0.2},
		"erasure":  {ErasureRate: 0.05},
		"truncate": {TruncRate: 0.2, TruncTail: 0.25},
		"stall":    {StallRate: 0.2, StallSlots: 64},
		"severity": FaultSeverity(0.5),
	}
}

// TestFaultsEveryInjectorEndToEnd drives each injector through Run, a
// Monitor round and a fleet-style salted replay, over both a healthy
// population and the all-idle degenerate one (n = 0). Faulted runs must
// never error — degradation is reported through Saturated, not failures.
func TestFaultsEveryInjectorEndToEnd(t *testing.T) {
	for name, plan := range injectorPlans() {
		t.Run(name, func(t *testing.T) {
			sys := NewSystem(20000, WithSeed(31), WithFaults(plan))
			est, err := sys.Run(nil, WithSalt(1))
			if err != nil {
				t.Fatalf("faulted run failed: %v", err)
			}
			if !(est.N >= 0) || math.IsInf(est.N, 0) {
				t.Fatalf("faulted run produced degenerate estimate %v", est.N)
			}
			m, err := NewMonitor(0.1, 0.1, 2)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				if _, err := m.Run(context.Background(), sys); err != nil {
					t.Fatalf("monitor round %d failed: %v", round, err)
				}
			}

			empty := NewSystem(0, WithSeed(32), WithFaults(plan))
			dest, err := empty.Run(nil, WithSalt(2), WithRetry(2, 0))
			if err != nil {
				t.Fatalf("faulted empty-population run failed: %v", err)
			}
			if !(dest.N >= 0) || math.IsInf(dest.N, 0) {
				t.Fatalf("empty-population estimate degenerate: %v", dest.N)
			}
		})
	}
}

// TestUPERefusesFaultedEngine: UPE reads slot states (empty, single,
// collision), which the fault injector does not model. On a faulted
// system, synthetic or tag-level, the run fails with an error before its
// first broadcast, so it charges no air time; the same system without
// faults still runs UPE.
func TestUPERefusesFaultedEngine(t *testing.T) {
	for name, opts := range map[string][]SystemOption{
		"synthetic": {WithSeed(34), WithSynthetic()},
		"tag-level": {WithSeed(34)},
	} {
		faulted := NewSystem(1000, append(opts, WithFaults(FaultSeverity(0.5)))...)
		reg := NewMetrics()
		if _, err := faulted.Run(context.Background(), WithEstimator("UPE"), WithObserver(reg)); err == nil {
			t.Fatalf("%s: UPE ran on a faulted channel", name)
		}
		if s := reg.Snapshot(); s.ReaderBits != 0 || s.Slots != 0 || s.AirTimeSeconds.Sum != 0 {
			t.Errorf("%s: refused run charged air: reader bits %d, slots %d, %v s",
				name, s.ReaderBits, s.Slots, s.AirTimeSeconds.Sum)
		}
		if _, err := NewSystem(1000, opts...).Run(context.Background(), WithEstimator("UPE")); err != nil {
			t.Errorf("%s: UPE without faults: %v", name, err)
		}
	}
}

// TestFaultsDeterministicPerSalt pins the injectors' determinism contract:
// equal (system seed, plan, salt) replays a bit-identical estimate and a
// bit-identical fault schedule, measured through the metrics registry.
func TestFaultsDeterministicPerSalt(t *testing.T) {
	for name, plan := range injectorPlans() {
		t.Run(name, func(t *testing.T) {
			run := func() (Estimate, obs.FaultStats) {
				sys := NewSystem(20000, WithSeed(33), WithFaults(plan))
				reg := NewMetrics()
				est, err := sys.Run(nil, WithSalt(7), WithObserver(reg))
				if err != nil {
					t.Fatal(err)
				}
				snap := reg.Snapshot()
				return est, obs.FaultStats{
					Frames:      int(snap.Faults.Frames),
					BurstFlips:  int(snap.Faults.BurstFlips),
					Erasures:    int(snap.Faults.Erasures),
					Truncations: int(snap.Faults.Truncations),
					Stalls:      int(snap.Faults.Stalls),
					StallSlots:  int(snap.Faults.StallSlots),
				}
			}
			estA, faultsA := run()
			estB, faultsB := run()
			if estA != estB {
				t.Fatalf("same salt, different estimates:\n%+v\n%+v", estA, estB)
			}
			if faultsA != faultsB {
				t.Fatalf("same salt, different fault schedules:\n%+v\n%+v", faultsA, faultsB)
			}
			if faultsA.Frames == 0 {
				t.Fatal("injector reported no processed frames")
			}
		})
	}
}

// TestFaultMachineryPassiveByDefault pins the acceptance criterion that
// the fault/retry machinery is provably passive when disabled: a system
// with a zero fault plan and an unused retry budget replays bit-identical
// to the plain configuration.
func TestFaultMachineryPassiveByDefault(t *testing.T) {
	base := NewSystem(20000, WithSeed(42))
	want, err := base.Run(nil, WithSalt(5))
	if err != nil {
		t.Fatal(err)
	}
	zeroPlan := NewSystem(20000, WithSeed(42), WithFaults(FaultPlan{}))
	got, err := zeroPlan.Run(nil, WithSalt(5))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("zero fault plan perturbed the run:\n got %+v\nwant %+v", got, want)
	}
	// A retry budget that never fires (healthy run) must be equally inert.
	retried, err := base.Run(nil, WithSalt(5), WithRetry(3, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if retried != want {
		t.Fatalf("unused retry budget perturbed the run:\n got %+v\nwant %+v", retried, want)
	}
	if retried.Retries != 0 || retried.Saturated {
		t.Fatalf("healthy run reported retries/saturation: %+v", retried)
	}
}

// TestRetryRecountsSaturatedRounds pins the retry loop's accounting on a
// population that saturates every attempt (n = 0: all frames idle): every
// allowed retry is spent, costs accumulate across attempts, and the
// observer counts each retry plus the final degradation.
func TestRetryRecountsSaturatedRounds(t *testing.T) {
	sys := NewSystem(0, WithSeed(8))
	plain, err := sys.Run(nil, WithSalt(3))
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Saturated {
		t.Fatalf("empty population did not saturate: %+v", plain)
	}
	reg := NewMetrics()
	est, err := sys.Run(nil, WithSalt(3), WithRetry(2, 0), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if est.Retries != 2 {
		t.Fatalf("retries = %d, want 2", est.Retries)
	}
	if !est.Saturated {
		t.Fatal("all attempts saturate; final estimate must stay flagged")
	}
	if est.Seconds <= plain.Seconds || est.Slots <= plain.Slots {
		t.Fatalf("retry cost not accumulated: %+v vs single %+v", est, plain)
	}
	snap := reg.Snapshot()
	if snap.Retries != 2 || snap.Degraded != 1 {
		t.Fatalf("registry retries=%d degraded=%d, want 2/1", snap.Retries, snap.Degraded)
	}
	// The air-time budget caps re-runs: a budget below one round's cost
	// admits no retry at all.
	capped, err := sys.Run(nil, WithSalt(3), WithRetry(5, plain.Seconds/2))
	if err != nil {
		t.Fatal(err)
	}
	if capped.Retries != 0 {
		t.Fatalf("budget-capped run still retried %d times", capped.Retries)
	}
}

// TestRetryValidation: degenerate retry options are rejected before a
// session is opened.
func TestRetryValidation(t *testing.T) {
	sys := NewSystem(10, WithSeed(2))
	if _, err := sys.Run(nil, WithRetry(-1, 0)); err == nil {
		t.Fatal("negative retries accepted")
	}
	if _, err := sys.Run(nil, WithRetry(1, math.NaN())); err == nil {
		t.Fatal("NaN retry budget accepted")
	}
	if _, err := sys.Run(nil, WithRetry(1, -1)); err == nil {
		t.Fatal("negative retry budget accepted")
	}
	if _, err := sys.RunBFCEDetail(nil, WithRetry(-1, 0)); err == nil {
		t.Fatal("RunBFCEDetail accepted negative retries")
	}
}

// TestBFCEDetailRetryAgreesWithRun pins that the diagnostic path retries
// the way Run does — saturated attempts only — so under WithRetry its
// Estimate equals Run's and both paths book the same retries and
// degradations.
func TestBFCEDetailRetryAgreesWithRun(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1000, 2000, 20000} {
		sys := NewSystem(n, WithSeed(8), WithSynthetic())
		runReg, detReg := NewMetrics(), NewMetrics()
		for salt := uint64(0); salt < 6; salt++ {
			est, err := sys.Run(context.Background(), WithSeedSalt(salt), WithRetry(2, 0), WithObserver(runReg))
			if err != nil {
				t.Fatal(err)
			}
			det, err := sys.RunBFCEDetail(context.Background(), WithSeedSalt(salt), WithRetry(2, 0), WithObserver(detReg))
			if err != nil {
				t.Fatal(err)
			}
			if det.Estimate != est {
				t.Errorf("n=%d salt=%d: detail %+v != Run %+v", n, salt, det.Estimate, est)
			}
			if n == 0 && (det.Estimate.Retries != 2 || !det.Estimate.Saturated) {
				t.Errorf("n=0 salt=%d: every attempt saturates, detail retry accounting %+v", salt, det.Estimate)
			}
		}
		r, d := runReg.Snapshot(), detReg.Snapshot()
		if r.Retries != d.Retries || r.Degraded != d.Degraded {
			t.Errorf("n=%d: registry retries/degraded Run %d/%d, detail %d/%d",
				n, r.Retries, r.Degraded, d.Retries, d.Degraded)
		}
	}
}

// TestConcurrentRetrySharedSystem exercises the retry path from 32
// goroutines against one shared System under -race: every run saturates
// (n = 0), so every goroutine drives the full retry loop while reporting
// into one shared registry. Salted results must match a quiet replay.
func TestConcurrentRetrySharedSystem(t *testing.T) {
	const goroutines = 32
	sys := NewSystem(0, WithSeed(77))
	reg := NewMetrics()
	results := make([]Estimate, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = sys.Run(nil,
				WithSalt(uint64(g)), WithRetry(1, 0), WithObserver(reg))
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		replay, err := sys.Run(nil, WithSalt(uint64(g)), WithRetry(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		if results[g] != replay {
			t.Fatalf("goroutine %d diverged from quiet replay:\n got %+v\nwant %+v", g, results[g], replay)
		}
	}
	snap := reg.Snapshot()
	if snap.Retries != goroutines {
		t.Fatalf("registry retries = %d, want %d (every run saturates and retries once)", snap.Retries, goroutines)
	}
	if snap.Degraded != goroutines {
		t.Fatalf("registry degraded = %d, want %d", snap.Degraded, goroutines)
	}
}
