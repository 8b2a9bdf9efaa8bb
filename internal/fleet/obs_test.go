package fleet

import (
	"context"
	"reflect"
	"testing"

	"rfidest"
	"rfidest/internal/obs"
)

// TestSharedRegistryUnderConcurrency drives 32 goroutines through one
// Registry via the fleet pool: every trial of every job reports into the
// same sink concurrently. Run under -race in CI, this is the registry's
// thread-safety proof; the accounting assertions pin that no hook is lost
// under contention.
func TestSharedRegistryUnderConcurrency(t *testing.T) {
	sys := rfidest.NewSystem(30000, rfidest.WithSeed(5), rfidest.WithSynthetic())
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2}
	}
	reg := obs.NewRegistry()
	rep, err := Run(context.Background(), Config{Workers: 32, Seed: 42, Observer: reg}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 64 {
		t.Fatalf("trials = %d, want 64", rep.Trials)
	}
	s := reg.Snapshot()
	if s.Sessions != 64 || s.Errors != 0 {
		t.Fatalf("registry sessions/errors = %d/%d, want 64/0", s.Sessions, s.Errors)
	}
	// BFCE's per-session budget: one probe, one rough and one accurate span.
	for _, p := range []obs.Phase{obs.PhaseProbe, obs.PhaseRough, obs.PhaseAccurate} {
		if got := s.Phases[p].Spans; got != 64 {
			t.Errorf("%s spans = %d, want 64", p, got)
		}
	}
	if s.Phases[obs.PhaseAccurate].Slots != 64*8192 {
		t.Errorf("accurate slots = %d, want %d", s.Phases[obs.PhaseAccurate].Slots, 64*8192)
	}
	if s.AirTimeSeconds.Count != 64 || s.ProbeRounds.Count != 64 || s.EstimateRelErr.Count != 64 {
		t.Errorf("histogram counts air/probe/err = %d/%d/%d, want 64 each",
			s.AirTimeSeconds.Count, s.ProbeRounds.Count, s.EstimateRelErr.Count)
	}
	if len(s.Estimators) != 1 || s.Estimators[0].Sessions != 64 {
		t.Errorf("estimator accounting: %+v", s.Estimators)
	}
}

// TestObserverDoesNotPerturbResults pins the passivity contract at fleet
// scale: a batch with a shared registry produces a byte-for-byte identical
// Report to the uninstrumented batch.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	plain := mixedBatch(t)
	instrumented := mixedBatch(t)
	// mixedBatch builds fresh Systems each call with fixed seeds; same
	// salted sessions either way.
	cfg := Config{Seed: 0xf1ee7, Workers: 4}
	want, err := Run(context.Background(), cfg, plain)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Observer = reg
	got, err := Run(context.Background(), cfg, instrumented)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Jobs {
		if !reflect.DeepEqual(want.Jobs[i].Estimates, got.Jobs[i].Estimates) {
			t.Fatalf("job %d: estimates differ with observers attached", i)
		}
	}
	if reg.Snapshot().Sessions == 0 {
		t.Error("batch observer saw no sessions")
	}
}
