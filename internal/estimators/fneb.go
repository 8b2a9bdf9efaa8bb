package estimators

import (
	"rfidest/internal/channel"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// FNEB is the First Non-Empty Based estimator of Han et al. [20]: tags hash
// uniformly into a large frame and the reader senses slots only until the
// first reply. With n tags in a frame of L slots the first busy position u
// has E[u] ≈ L/(n+1), so ū over R rounds inverts to n̂ = L/ū − 1.
//
// The coefficient of variation of a single round is ≈ 1 (the minimum is
// nearly exponential), so R = ⌈(d/ε)²⌉ rounds meet (ε, δ) — FNEB's round
// count is what makes it slow at tight accuracy. The frame size L is set
// from a rough LOF estimate so the expected scan is a handful of slots.
type FNEB struct{}

// fnebMaxRounds caps the averaging phase.
const fnebMaxRounds = 4096

// NewFNEB returns FNEB with default settings.
func NewFNEB() *FNEB { return &FNEB{} }

// Name implements Estimator.
func (f *FNEB) Name() string { return "FNEB" }

// Stepper implements Estimator.
func (f *FNEB) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	d := stats.D(acc.Delta)
	return &fnebStepper{
		rough:  roughLOF{rounds: roughRounds},
		rounds: sizeRounds((d/acc.Epsilon)*(d/acc.Epsilon), fnebMaxRounds),
	}, nil
}

type fnebStepper struct {
	rough roughLOF

	rounds int
	L      int // frame length, sized from the rough estimate
	round  int
	hits   int
	slots  int
	sumU   float64
}

func (s *fnebStepper) Plan() channel.RoundSpec {
	if !s.rough.done() {
		return s.rough.Plan()
	}
	return channel.RoundSpec{
		Kind:      channel.ScanRound,
		Broadcast: timing.SeedBits,
		Frame:     channel.FrameRequest{W: s.L, K: 1, P: 1},
	}
}

func (s *fnebStepper) Absorb(o channel.RoundObs) (bool, error) {
	if !s.rough.done() {
		done, err := s.rough.Absorb(o)
		if done {
			// Frame large enough that the first reply lands well inside
			// it: L ≈ 64·n̂_rough keeps P(first busy > L) negligible while
			// the expected scan cost stays ~L/n ≈ 64 slots.
			s.L = nextPow2(int(64 * s.rough.n()))
		}
		return false, err
	}
	if pos := o.First; pos < 0 {
		// Idle frame (only possible for an empty population): count the
		// full scan and record the frame bound.
		s.slots += s.L
		s.sumU += float64(s.L)
	} else {
		s.hits++
		s.slots += pos + 1
		// Continuous-minimum correction: the minimum of n uniforms on
		// [0, L) has mean L/(n+1); the slot index floors it, so add 1/2.
		s.sumU += float64(pos) + 0.5
	}
	s.round++
	return s.round >= s.rounds, nil
}

func (s *fnebStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	res := Result{
		Rounds:  s.rounds + s.rough.rounds,
		Slots:   s.slots + s.rough.slots,
		Guarded: true,
		Cost:    cost,
		Seconds: cost.Seconds(profile),
	}
	if s.hits > 0 {
		uBar := s.sumU / float64(s.rounds)
		res.Estimate = max(float64(s.L)/uBar-1, 0)
	}
	return res
}

// nextPow2 returns the smallest power of two >= v (and at least 64).
func nextPow2(v int) int {
	p := 64
	for p < v {
		p <<= 1
	}
	return p
}
