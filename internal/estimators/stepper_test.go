package estimators

import (
	"errors"
	"strings"
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/tags"
	"rfidest/internal/timing"
)

// TestAsStepperNative: every registry protocol answers to its registry
// name and converts into a round machine.
func TestAsStepperNative(t *testing.T) {
	for _, name := range Names() {
		est, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if est.Name() != name {
			t.Errorf("New(%s) built a %s estimator", name, est.Name())
		}
		st, err := AsStepper(est, Default)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil {
			t.Errorf("AsStepper(%s) returned no machine", name)
		}
	}
}

func TestAsStepperNil(t *testing.T) {
	if _, err := AsStepper(nil, Default); err == nil ||
		!strings.Contains(err.Error(), "nil") {
		t.Errorf("AsStepper(nil): err = %v", err)
	}
}

// TestEstimateNilSession matches the monolithic nil-session diagnostic.
func TestEstimateNilSession(t *testing.T) {
	if _, err := Estimate(NewLOF(), nil, Default); err == nil ||
		!strings.Contains(err.Error(), "nil session") {
		t.Errorf("Estimate(nil reader): err = %v", err)
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
