package channel

import (
	"errors"
	"testing"

	"rfidest/internal/tags"
	"rfidest/internal/timing"
)

func TestCheckFrameSeesThroughWrappers(t *testing.T) {
	pop := tags.Generate(100, tags.T1, 3)
	paper := NewTagEngine(pop, PaperXOR)
	ideal := NewTagEngine(pop, IdealRN)
	unaddressable := []FrameRequest{{W: 1, K: 1, P: 1}, {W: 100, K: 2, P: 0.5}}
	addressable := []FrameRequest{{W: 2, K: 1, P: 1}, {W: 8192, K: 3, P: 0.1}, {W: 100, K: 1, P: 1, Dist: Geometric}}
	for name, eng := range map[string]Engine{
		"paper-hash": paper,
		"noisy":      NewNoisyEngine(paper, 0.1, 0.1, 1),
		"capture":    NewCaptureEngine(paper, 0.5, 1),
		"merged":     NewMergedEngine(200, ideal, paper),
		"stacked":    NewNoisyEngine(NewCaptureEngine(NewMergedEngine(200, ideal, paper), 0.5, 1), 0.1, 0.1, 1),
	} {
		for _, req := range unaddressable {
			if err := CheckFrame(eng, req); !errors.Is(err, ErrUnsupportedRound) {
				t.Errorf("%s: CheckFrame(W=%d) = %v, want ErrUnsupportedRound", name, req.W, err)
			}
		}
		for _, req := range addressable {
			if err := CheckFrame(eng, req); err != nil {
				t.Errorf("%s: CheckFrame(W=%d, %v) = %v", name, req.W, req.Dist, err)
			}
		}
	}
	for name, eng := range map[string]Engine{
		"ideal": ideal,
		"id":    NewTagEngine(pop, IdealID),
		"balls": NewBallsEngine(100, 1),
	} {
		for _, req := range unaddressable {
			if err := CheckFrame(eng, req); err != nil {
				t.Errorf("%s: CheckFrame(W=%d) = %v", name, req.W, err)
			}
		}
	}
}

// oneFrame plans a single broadcast frame round.
type oneFrame struct{ req FrameRequest }

func (s oneFrame) Plan() RoundSpec {
	return RoundSpec{Broadcast: timing.SeedBits, Frame: s.req}
}

func (oneFrame) Absorb(RoundObs) (bool, error) { return true, nil }

// TestStepRoundRefusesBeforeBroadcast: a refused round reaches neither the
// clock nor the seed stream, so the session continues as if it had never
// been planned.
func TestStepRoundRefusesBeforeBroadcast(t *testing.T) {
	r := NewReader(NewTagEngine(tags.Generate(100, tags.T1, 3), PaperXOR), 9)
	_, err := StepRound(nil, r, oneFrame{FrameRequest{W: 1, K: 1, P: 1}})
	if !errors.Is(err, ErrUnsupportedRound) {
		t.Fatalf("StepRound = %v, want ErrUnsupportedRound", err)
	}
	if r.Cost() != (timing.Cost{}) {
		t.Fatalf("refused round charged %+v", r.Cost())
	}
	if got, want := r.NextSeed(), NewReader(nil, 9).NextSeed(); got != want {
		t.Fatal("refused round drew a seed")
	}
}
