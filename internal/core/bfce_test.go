package core

import (
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/obs"
	"rfidest/internal/stats"
	"rfidest/internal/tags"
	"rfidest/internal/timing"
)

func TestConfigNormalizeDefaults(t *testing.T) {
	cfg, err := (Config{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg != DefaultConfig() {
		t.Fatalf("zero config did not normalize to defaults: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{W: -1},
		{K: -2},
		{C: 1.5},
		{Epsilon: 1.0},
		{Delta: -0.1},
		{InitialPn: 2000},
		{W: 16, RoughSlots: 16}, // shorter than the probe window
		{RoughSlots: 9000},
	}
	for i, c := range bad {
		if _, err := c.Normalize(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Fatalf("New accepted bad config %d", i)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{W: -1})
}

func TestEstimateNilSession(t *testing.T) {
	e := MustNew(Config{})
	if _, err := e.Estimate(nil); err == nil {
		t.Fatal("nil session accepted")
	}
}

// run executes one BFCE estimation over a fresh tag-level session.
func run(t *testing.T, n int, dist tags.Distribution, seed uint64, cfg Config) Result {
	t.Helper()
	pop := tags.Generate(n, dist, seed)
	r := channel.NewReader(channel.NewTagEngine(pop, channel.IdealRN), seed+1)
	res, err := MustNew(cfg).Estimate(r)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEstimateAccuracyAcrossCardinalities(t *testing.T) {
	// Fig. 7(a)'s claim: accuracy stays within ε across n for (0.05, 0.05).
	for _, n := range []int{5000, 50000, 200000} {
		violations := 0
		const trials = 8
		for trial := 0; trial < trials; trial++ {
			res := run(t, n, tags.T1, uint64(100+trial), Config{})
			if !res.Feasible {
				t.Fatalf("n=%d trial %d infeasible: %+v", n, trial, res)
			}
			if stats.RelError(res.Estimate, float64(n)) > 0.05 {
				violations++
			}
		}
		// δ = 0.05: one violation in 8 trials is already unlucky but
		// possible; two is outside any reasonable tolerance.
		if violations > 1 {
			t.Fatalf("n=%d: %d/%d trials violated epsilon", n, violations, trials)
		}
	}
}

func TestEstimateAcrossDistributions(t *testing.T) {
	// The estimate must be distribution-agnostic (§V-B).
	for _, d := range tags.Distributions {
		res := run(t, 100000, d, 7, Config{})
		if stats.RelError(res.Estimate, 100000) > 0.05 {
			t.Fatalf("%v: estimate %v outside 5%% of 100000", d, res.Estimate)
		}
	}
}

func TestEstimatePaperXORMode(t *testing.T) {
	// The literal tag-side implementation must still estimate well; its
	// persistence bias is (pn-1)/1024 vs pn/1024, within the (ε, δ) slack.
	pop := tags.Generate(100000, tags.T2, 9)
	r := channel.NewReader(channel.NewTagEngine(pop, channel.PaperXOR), 10)
	res, err := MustNew(Config{}).Estimate(r)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelError(res.Estimate, 100000) > 0.08 {
		t.Fatalf("paper-xor estimate %v too far from 100000", res.Estimate)
	}
}

func TestLowerBoundHoldsMostly(t *testing.T) {
	// §IV-C: c = 0.5 "can guarantee n̂_low ≤ n hold in most cases".
	const trials = 20
	bad := 0
	for trial := 0; trial < trials; trial++ {
		res := run(t, 50000, tags.T1, uint64(500+trial), Config{})
		if res.LowerBound > 50000 {
			bad++
		}
	}
	if bad != 0 {
		t.Fatalf("lower bound exceeded n in %d/%d trials", bad, trials)
	}
}

func TestConstantSlotBudget(t *testing.T) {
	// The slot count must be probe·32 + 1024 + 8192 regardless of n.
	for _, n := range []int{2000, 200000, 1000000} {
		res := run(t, n, tags.T1, 77, Config{})
		fixed := res.Cost.TagSlots - 32*(res.ProbeRounds+1)
		if fixed != 1024+8192 {
			t.Fatalf("n=%d: non-probe slots = %d, want 9216 (cost %+v, probes %d)",
				n, fixed, res.Cost, res.ProbeRounds)
		}
	}
}

func TestExecutionTimeNearBudget(t *testing.T) {
	// §IV-E.1: t < 0.19 s plus the probe rounds the paper leaves out of
	// the closed form. Even with probing, a mid-size population finishes
	// fast and the non-probe part matches the budget.
	res := run(t, 500000, tags.T1, 3, Config{})
	budget := timing.BFCEBudgetSeconds(timing.C1G2)
	if res.Seconds > budget+0.05 {
		t.Fatalf("execution time %v s too far beyond the %v s budget", res.Seconds, budget)
	}
	if res.Seconds < 9216*18.88e-6 {
		t.Fatalf("execution time %v s below the bare slot time", res.Seconds)
	}
}

func TestProbeAdaptsDownward(t *testing.T) {
	// A huge population saturates the probe window at the initial 8/1024,
	// so the probe must lower p_s.
	res := run(t, 2000000, tags.T1, 5, Config{})
	if res.PsNum >= 8 {
		t.Fatalf("probe did not lower pn for n=2e6: ps=%d", res.PsNum)
	}
	if stats.RelError(res.Estimate, 2e6) > 0.05 {
		t.Fatalf("estimate %v outside 5%% of 2e6", res.Estimate)
	}
}

func TestProbeAdaptsUpward(t *testing.T) {
	// A small population almost surely leaves the first 32-slot window
	// idle at 8/1024 (per-slot busy probability ≈ 0.03% at n=800), so the
	// probe must raise p_s in the vast majority of trials.
	raised := 0
	const trials = 10
	for seed := uint64(0); seed < trials; seed++ {
		res := run(t, 800, tags.T1, seed, Config{})
		if res.PsNum > 8 {
			raised++
		}
	}
	if raised < trials-1 {
		t.Fatalf("probe raised pn in only %d/%d trials for n=800", raised, trials)
	}
}

func TestEmptyPopulation(t *testing.T) {
	// n = 0 must terminate (probe exhausts upward) and estimate ~0.
	res := run(t, 0, tags.T1, 8, Config{})
	if !res.Saturated {
		t.Fatal("empty population must saturate")
	}
	if res.Estimate > 50 {
		t.Fatalf("estimate for empty population = %v", res.Estimate)
	}
}

func TestProbeCapSettles(t *testing.T) {
	// Probe windows that alternate all idle (p_n += 2) and all busy
	// (p_n −= 1) never settle on their own; the cap must end the probe on
	// its 768th frame, at 8 + 384·2 − 383 = 393, and hand over to rough.
	idle := channel.FromBools(make([]bool, 32))
	full := make([]bool, 32)
	for i := range full {
		full[i] = true
	}
	busy := channel.FromBools(full)
	st := MustNew(Config{}).Stepper()
	for frame := 1; frame <= 768; frame++ {
		if ph := st.Plan().Phase; ph != obs.PhaseProbe {
			t.Fatalf("frame %d planned phase %v, want probe", frame, ph)
		}
		obsv := channel.RoundObs{Frame: busy}
		if frame%2 == 1 {
			obsv.Frame = idle
		}
		if done, err := st.Absorb(obsv); done || err != nil {
			t.Fatalf("frame %d: done=%v err=%v", frame, done, err)
		}
	}
	res := st.Result()
	if res.ProbeRounds != 767 || res.PsNum != 393 {
		t.Fatalf("probe settled with ProbeRounds=%d PsNum=%d, want 767 and 393", res.ProbeRounds, res.PsNum)
	}
	if ph := st.Plan().Phase; ph != obs.PhaseRough {
		t.Fatalf("after the probe cap the stepper planned %v, want rough", ph)
	}
}

func TestTinyPopulationInfeasibleButEstimates(t *testing.T) {
	// Below ~500 tags Theorem 3 has no feasible p at (0.05, 0.05) — the
	// paper's stated scope is n ≥ 1000 — but BFCE must still return a
	// best-effort estimate via the fallback numerator.
	res := run(t, 120, tags.T1, 9, Config{})
	if res.Feasible {
		t.Fatalf("n=120 unexpectedly feasible (po=%d, low=%v)", res.PoNum, res.LowerBound)
	}
	if stats.RelError(res.Estimate, 120) > 0.5 {
		t.Fatalf("fallback estimate %v too far from 120", res.Estimate)
	}
}

func TestLooserAccuracyUsesSmallerP(t *testing.T) {
	// A looser ε needs less signal: p_o must not increase when ε grows.
	tight := run(t, 200000, tags.T1, 11, Config{Epsilon: 0.05})
	loose := run(t, 200000, tags.T1, 11, Config{Epsilon: 0.3})
	if loose.PoNum > tight.PoNum {
		t.Fatalf("po grew with looser epsilon: %d > %d", loose.PoNum, tight.PoNum)
	}
}

func TestResultString(t *testing.T) {
	res := run(t, 5000, tags.T1, 12, Config{})
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestEstimateWithBallsEngine(t *testing.T) {
	// The protocol must behave identically over the synthetic engine.
	r := channel.NewReader(channel.NewBallsEngine(300000, 13), 14)
	res, err := MustNew(Config{}).Estimate(r)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelError(res.Estimate, 300000) > 0.05 {
		t.Fatalf("balls-engine estimate %v outside 5%% of 3e5", res.Estimate)
	}
}

func TestClampRho(t *testing.T) {
	if v, deg := clampRho(0, 1024); !deg || v != 0.5/1024 {
		t.Fatalf("clamp low: %v %v", v, deg)
	}
	if v, deg := clampRho(1, 1024); !deg || v != 1-0.5/1024 {
		t.Fatalf("clamp high: %v %v", v, deg)
	}
	if v, deg := clampRho(0.5, 1024); deg || v != 0.5 {
		t.Fatalf("clamp mid: %v %v", v, deg)
	}
}
