package estimators

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/tags"
	"rfidest/internal/timing"
)

// The snapshot/resume contract: a stepper frozen mid-run and restored into
// a fresh machine continues the protocol as if nothing happened — same
// estimate, same accounting — because Snapshot carries the entire mid-run
// state (held seeds, partial observations, sub-phase progress) and the
// session's seed stream lives in the Reader, untouched by the freeze.

// stepN drives st for up to n rounds over r, returning how many rounds ran
// and whether the protocol completed.
func stepN(t *testing.T, r *channel.Reader, st Stepper, n int) (int, bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		done, err := channel.StepRound(nil, r, st)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if done {
			return i + 1, true
		}
	}
	return n, false
}

func TestStepperSnapshotResume(t *testing.T) {
	type tc struct {
		name string
		est  Estimator
		k    int // rounds to run before freezing
	}
	cases := []tc{
		{"BFCE", NewBFCE(), 2},
		{"LOF", NewLOF(), 4},
		{"ZOE", NewZOE(), 40},                 // past the rough phase, into singleton slots
		{"SRC", NewSRC(), 3},                  // mid accurate phase
		{"ZOE-early", NewZOE(), 2},            // frozen inside the rough phase
		{"UPE", NewUPE(), 2},                  // inside calibration (3 frames at this n)
		{"EZB", NewEZB(), 11},                 // inside measurement (3 frames)
		{"FNEB", NewFNEB(), 20},               // inside measurement
		{"MLE", NewMLE(), 4},                  // inside the rough phase
		{"ART", NewART(), 12},                 // inside measurement (5 frames)
		{"PET", NewPET(), 8},                  // between two probes of the second round
		{"BFCE-multi", NewBFCEMulti(), 4},     // between the first and second BFCE runs
		{"ZOE-batched", NewZOEBatched(), 110}, // inside the silent coin frames
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const n, seed = 20000, 77
			acc := Default

			// Straight run for the reference result.
			want, err := c.est.Estimate(newSession(n, seed), acc)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: k rounds, freeze, thaw into a fresh
			// machine, finish on the same session.
			r := newSession(n, seed)
			start := r.Cost()
			st, err := c.est.Stepper(acc)
			if err != nil {
				t.Fatal(err)
			}
			ran, done := stepN(t, r, st, c.k)
			if done {
				t.Fatalf("protocol finished in %d rounds; pick a smaller k than %d", ran, c.k)
			}
			snap := st.Snapshot()

			resumed, err := c.est.Stepper(acc)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if _, done := stepN(t, r, resumed, 1<<20); !done {
				t.Fatal("resumed run never completed")
			}
			r.EndPhase()
			got := resumed.Result(r.Cost().Sub(start), r.Profile)
			if got != want {
				t.Errorf("resumed run diverged:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestStepperRestoreRejectsForeignSnapshot: a snapshot only thaws into the
// machine type that produced it.
func TestStepperRestoreRejectsForeignSnapshot(t *testing.T) {
	acc := Default
	bfce, err := NewBFCE().Stepper(acc)
	if err != nil {
		t.Fatal(err)
	}
	lof, err := NewLOF().Stepper(acc)
	if err != nil {
		t.Fatal(err)
	}
	if err := bfce.Restore(lof.Snapshot()); err == nil {
		t.Error("BFCE stepper accepted a LOF snapshot")
	}
	if err := lof.Restore(bfce.Snapshot()); err == nil {
		t.Error("LOF stepper accepted a BFCE snapshot")
	}
}

// TestAsStepperNative: every registry protocol converts into its own
// round machine.
func TestAsStepperNative(t *testing.T) {
	for _, name := range Names() {
		est, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := AsStepper(est, Default)
		if err != nil {
			t.Fatal(err)
		}
		if st.Name() != name {
			t.Errorf("AsStepper(%s) built a %s machine", name, st.Name())
		}
	}
}

func TestAsStepperNil(t *testing.T) {
	if _, err := AsStepper(nil, Default); err == nil ||
		!strings.Contains(err.Error(), "nil") {
		t.Errorf("AsStepper(nil): err = %v", err)
	}
}

// TestRunNilSession matches the monolithic nil-session diagnostic.
func TestRunNilSession(t *testing.T) {
	st, err := AsStepper(NewLOF(), Default)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), nil, st); err == nil ||
		!strings.Contains(err.Error(), "nil session") {
		t.Errorf("Run(nil reader): err = %v", err)
	}
}

// TestPaperHashRefusesUnaddressableFrames pins the refusal of frames the
// paper's tag hash cannot address: ZOE and ZOE-batched announce 1-slot
// frames and SRC ⌈7.72/ε²⌉-slot ones, none a power of two of at least 2.
// Each run stops at its first such round with channel.ErrUnsupportedRound
// before the round's broadcast, so the refused round costs nothing.
func TestPaperHashRefusesUnaddressableFrames(t *testing.T) {
	pop := tags.Generate(2000, tags.T1, 3)
	for _, name := range []string{"ZOE", "ZOE-batched", "SRC"} {
		est, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := AsStepper(est, Accuracy{Epsilon: 0.2, Delta: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		r := channel.NewReader(channel.NewTagEngine(pop, channel.PaperXOR), 5)
		for round := 0; ; round++ {
			before := r.Cost()
			done, err := channel.StepRound(nil, r, st)
			if err != nil {
				if !errors.Is(err, channel.ErrUnsupportedRound) {
					t.Fatalf("%s round %d: %v, want ErrUnsupportedRound", name, round, err)
				}
				if spent := r.Cost().Sub(before); spent != (timing.Cost{}) {
					t.Fatalf("%s: the refused round charged %+v", name, spent)
				}
				break
			}
			if done {
				t.Fatalf("%s completed on paper-hash tags", name)
			}
		}
	}
}
