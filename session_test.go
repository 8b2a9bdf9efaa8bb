package rfidest_test

// Round-structured execution tests: the golden grid replayed through the
// public StartRun/Step loop, and through the interleaving scheduler at
// several widths. Every path must reproduce the grid bit-for-bit — the
// stepper refactor's core contract is that restructuring execution into
// rounds changes nothing observable about any estimate.

import (
	"context"
	"runtime"
	"testing"

	"rfidest"
	"rfidest/internal/goldengrid"
	"rfidest/internal/sched"
)

func goldenOptions(c goldengrid.Case) []rfidest.Option {
	return []rfidest.Option{
		rfidest.WithEstimator(c.Estimator),
		rfidest.WithAccuracy(goldengrid.Epsilon, goldengrid.Delta),
		rfidest.WithSalt(c.Salt),
	}
}

// TestStartRunStepGolden drives every golden case by hand — StartRun, then
// Step until done — and pins the full Estimate against the grid.
func TestStartRunStepGolden(t *testing.T) {
	system := goldenSystems(t)
	ctx := context.Background()
	for _, c := range goldengrid.Cases() {
		rs, err := system(c.System).StartRun(goldenOptions(c)...)
		if err != nil {
			t.Errorf("%s/%s/0x%x: StartRun: %v", c.System, c.Estimator, c.Salt, err)
			continue
		}
		if rs.Estimator() != c.Estimator {
			t.Errorf("%s/%s/0x%x: Estimator() = %q", c.System, c.Estimator, c.Salt, rs.Estimator())
		}
		if _, err := rs.Result(); err == nil {
			t.Errorf("%s/%s/0x%x: Result before completion did not error", c.System, c.Estimator, c.Salt)
		}
		steps := 0
		for {
			done, err := rs.Step(ctx)
			if err != nil {
				t.Fatalf("%s/%s/0x%x: Step %d: %v", c.System, c.Estimator, c.Salt, steps, err)
			}
			steps++
			if done {
				break
			}
		}
		if !rs.Done() {
			t.Fatalf("%s/%s/0x%x: Done() false after Step reported done", c.System, c.Estimator, c.Salt)
		}
		if rs.Rounds() != steps {
			t.Errorf("%s/%s/0x%x: Rounds() = %d after %d steps", c.System, c.Estimator, c.Salt, rs.Rounds(), steps)
		}
		got, err := rs.Result()
		if err != nil {
			t.Errorf("%s/%s/0x%x: Result: %v", c.System, c.Estimator, c.Salt, err)
			continue
		}
		if got != c.Want {
			t.Errorf("%s/%s/0x%x:\n got  %+v\n want %+v", c.System, c.Estimator, c.Salt, got, c.Want)
		}
		// A finished session's Step is a settled no-op.
		if done, err := rs.Step(ctx); !done || err != nil {
			t.Errorf("%s/%s/0x%x: Step after done = (%v, %v)", c.System, c.Estimator, c.Salt, done, err)
		}
	}
}

// TestSchedInterleaveGolden replays the grid through sched.Interleave at
// widths 1, 4 and 32: the cases are batched, every batch's sessions are
// opened together and their rounds interleaved breadth-first, and each
// session must still land exactly on its golden Estimate — sessions own
// their seed streams, so interleaving cannot perturb them.
func TestSchedInterleaveGolden(t *testing.T) {
	cases := goldengrid.Cases()
	ctx := context.Background()
	for _, width := range []int{1, 4, 32} {
		system := goldenSystems(t)
		for lo := 0; lo < len(cases); lo += width {
			hi := lo + width
			if hi > len(cases) {
				hi = len(cases)
			}
			batch := cases[lo:hi]
			runners := make([]sched.Runner, len(batch))
			sessions := make([]*rfidest.RunSession, len(batch))
			for i, c := range batch {
				rs, err := system(c.System).StartRun(goldenOptions(c)...)
				if err != nil {
					t.Fatalf("width %d, %s/%s/0x%x: StartRun: %v", width, c.System, c.Estimator, c.Salt, err)
				}
				sessions[i] = rs
				runners[i] = rs
			}
			outcome := sched.Interleave(ctx, sched.Config{Seed: 0xba7c4}, runners)
			for i, c := range batch {
				if outcome[i].Err != nil {
					t.Errorf("width %d, %s/%s/0x%x: scheduler: %v", width, c.System, c.Estimator, c.Salt, outcome[i].Err)
					continue
				}
				if outcome[i].Rounds != sessions[i].Rounds() {
					t.Errorf("width %d, %s/%s/0x%x: scheduler counted %d rounds, session counted %d",
						width, c.System, c.Estimator, c.Salt, outcome[i].Rounds, sessions[i].Rounds())
				}
				got, err := sessions[i].Result()
				if err != nil {
					t.Errorf("width %d, %s/%s/0x%x: %v", width, c.System, c.Estimator, c.Salt, err)
					continue
				}
				if got != c.Want {
					t.Errorf("width %d, %s/%s/0x%x:\n got  %+v\n want %+v",
						width, c.System, c.Estimator, c.Salt, got, c.Want)
				}
			}
		}
	}
}

// TestSchedGOMAXPROCSIndependence runs the same interleaved batch under
// GOMAXPROCS=1 and GOMAXPROCS=8 and demands identical estimates and
// identical per-session round counts: the scheduler is single-goroutine
// and seeded, so parallelism settings must be invisible to it.
func TestSchedGOMAXPROCSIndependence(t *testing.T) {
	cases := goldengrid.Cases()[:16]
	run := func() ([]rfidest.Estimate, []int) {
		system := goldenSystems(t)
		runners := make([]sched.Runner, len(cases))
		sessions := make([]*rfidest.RunSession, len(cases))
		for i, c := range cases {
			rs, err := system(c.System).StartRun(goldenOptions(c)...)
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = rs
			runners[i] = rs
		}
		outcome := sched.Interleave(context.Background(), sched.Config{Seed: 7}, runners)
		ests := make([]rfidest.Estimate, len(cases))
		rounds := make([]int, len(cases))
		for i := range cases {
			if outcome[i].Err != nil {
				t.Fatal(outcome[i].Err)
			}
			est, err := sessions[i].Result()
			if err != nil {
				t.Fatal(err)
			}
			ests[i] = est
			rounds[i] = outcome[i].Rounds
		}
		return ests, rounds
	}

	prev := runtime.GOMAXPROCS(1)
	ests1, rounds1 := run()
	runtime.GOMAXPROCS(8)
	ests8, rounds8 := run()
	runtime.GOMAXPROCS(prev)

	for i := range cases {
		if ests1[i] != ests8[i] {
			t.Errorf("case %d: GOMAXPROCS=1 estimate %+v != GOMAXPROCS=8 estimate %+v", i, ests1[i], ests8[i])
		}
		if rounds1[i] != rounds8[i] {
			t.Errorf("case %d: round counts diverge across GOMAXPROCS: %d vs %d", i, rounds1[i], rounds8[i])
		}
	}
}

// TestStartRunValidation: invalid options fail at StartRun, before any
// session opens, with the same diagnostics Run reports.
func TestStartRunValidation(t *testing.T) {
	sys := rfidest.NewSystem(1000, rfidest.WithSynthetic())
	if _, err := sys.StartRun(rfidest.WithEstimator("nope")); err == nil {
		t.Error("unknown estimator accepted")
	}
	if _, err := sys.StartRun(rfidest.WithAccuracy(0, 0.5)); err == nil {
		t.Error("bad accuracy accepted")
	}
	if _, err := sys.StartRun(rfidest.WithRetry(-1, 0)); err == nil {
		t.Error("negative retries accepted")
	}
}

// TestSessionAllocs caps the heap allocations of one synthetic session per
// registry protocol, so an allocation added to any round machine, or to
// the round driver they all share, fails here. The ceilings are the
// counts measured when every protocol began stepping through
// channel.StepRound; a change that lowers a count should lower its
// ceiling.
func TestSessionAllocs(t *testing.T) {
	ceiling := map[string]float64{
		"ART":         89,
		"BFCE":        27,
		"BFCE-multi":  91,
		"EZB":         74,
		"FNEB":        3133,
		"LOF":         59,
		"MLE":         84,
		"PET":         4645,
		"SRC":         51,
		"UPE":         42,
		"ZOE":         19890,
		"ZOE-batched": 19889,
	}
	sys := rfidest.NewSystem(50000, rfidest.WithSeed(7), rfidest.WithSynthetic())
	for _, name := range rfidest.Estimators() {
		want, ok := ceiling[name]
		if !ok {
			t.Errorf("%s has no allocation ceiling", name)
			continue
		}
		var err error
		got := testing.AllocsPerRun(3, func() {
			_, err = sys.Run(context.Background(), rfidest.WithEstimator(name),
				rfidest.WithAccuracy(0.05, 0.05), rfidest.WithSeedSalt(1))
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got > want {
			t.Errorf("%s: %v allocations per session, ceiling %v", name, got, want)
		}
	}
}
