package estimators

import (
	"rfidest/internal/channel"
	"rfidest/internal/timing"
)

// EZB is the Enhanced Zero-Based estimator of Kodialam, Nandagopal and Lau
// [18], designed for anonymous tracking: over R identically parameterized
// frames it averages the number of zero (empty) slots and inverts
// E[Z] = f·e^{-np/f}. Unlike UPE it never needs singleton/collision
// discrimination, so we run it over plain bit-slot frames.
//
// The persistence probability is set from a rough LOF estimate so the
// per-slot load sits at the variance-minimizing λ*; R is sized so the
// averaged zero count meets (ε, δ).
type EZB struct{}

const (
	ezbFrame     = 1024 // frame length
	ezbMaxRounds = 256  // cap on the averaging phase
)

// NewEZB returns EZB with the default frame size.
func NewEZB() *EZB { return &EZB{} }

// Name implements Estimator.
func (e *EZB) Name() string { return "EZB" }

// Estimate implements Estimator.
func (e *EZB) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(e, r, acc)
}

// Stepper implements Estimator. R frames so the pooled f·R observations
// meet (ε, δ) at the design load (same variance law as every zero
// estimator).
func (e *EZB) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	return &ezbStepper{
		rough:  roughLOF{rounds: roughRounds},
		rounds: frameRounds(acc, 1, lambdaStarZOE, ezbFrame, ezbMaxRounds),
	}, nil
}

type ezbStepper struct {
	rough roughLOF

	rounds int
	p      float64
	round  int
	idle   int
}

func (s *ezbStepper) Name() string { return "EZB" }

func (s *ezbStepper) Plan() channel.RoundSpec {
	if !s.rough.done() {
		return s.rough.Plan()
	}
	return channel.RoundSpec{
		Broadcast: timing.SeedBits + timing.PnBits,
		Frame:     channel.FrameRequest{W: ezbFrame, K: 1, P: s.p},
	}
}

func (s *ezbStepper) Absorb(o channel.RoundObs) (bool, error) {
	if !s.rough.done() {
		done, err := s.rough.Absorb(o)
		if done {
			s.p = min(lambdaStarZOE*ezbFrame/s.rough.n(), 1)
		}
		return false, err
	}
	s.idle += o.Frame.CountIdle()
	s.round++
	return s.round >= s.rounds, nil
}

func (s *ezbStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	m := s.rounds * ezbFrame
	rho := clampRho(float64(s.idle)/float64(m), m)
	return Result{
		Estimate: zeroEstimate(rho, s.p, ezbFrame),
		Rounds:   s.rounds + s.rough.rounds,
		Slots:    m + s.rough.slots,
		Guarded:  true,
		Cost:     cost,
		Seconds:  cost.Seconds(profile),
	}
}

func (s *ezbStepper) Snapshot() any          { return *s }
func (s *ezbStepper) Restore(snap any) error { return restore(s, snap) }
