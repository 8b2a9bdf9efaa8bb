package estimators

import (
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/timing"
)

// MLE is the Maximum Likelihood Estimator of Li et al. [21], proposed for
// energy-constrained active tags: tags respond with a persistence
// probability in framed slots, and the reader maximizes the likelihood of
// the observed idle/busy pattern over n instead of inverting a single
// moment.
//
// With R frames of f slots at persistence p, each slot is idle with
// probability q(n) = (1−p/f)^n and the log-likelihood is
//
//	ℓ(n) = Σ_r [idle_r·ln q(n) + (f−idle_r)·ln(1−q(n))]
//
// which is unimodal in n; we maximize it by golden-section search. Round
// count is sized like the zero estimator's (the MLE is asymptotically
// efficient, so the same Fisher-information budget applies).
//
// Frames are 512 slots — smaller frames, more rounds: the protocol targets
// tag energy, not reader time.
type MLE struct{}

const (
	mleFrame     = 512 // frame length
	mleMaxRounds = 512 // cap on the measurement phase
)

// NewMLE returns MLE with default settings.
func NewMLE() *MLE { return &MLE{} }

// Name implements Estimator.
func (m *MLE) Name() string { return "MLE" }

// Stepper implements Estimator.
func (m *MLE) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	return &mleStepper{
		rough:  roughLOF{rounds: roughRounds},
		rounds: frameRounds(acc, 1, lambdaStarZOE, mleFrame, mleMaxRounds),
	}, nil
}

type mleStepper struct {
	rough roughLOF

	rounds int
	p      float64
	round  int
	idle   int
}

func (s *mleStepper) Plan() channel.RoundSpec {
	if !s.rough.done() {
		return s.rough.Plan()
	}
	return channel.RoundSpec{
		Broadcast: timing.SeedBits + timing.PnBits,
		Frame:     channel.FrameRequest{W: mleFrame, K: 1, P: s.p},
	}
}

func (s *mleStepper) Absorb(o channel.RoundObs) (bool, error) {
	if !s.rough.done() {
		done, err := s.rough.Absorb(o)
		if done {
			s.p = min(lambdaStarZOE*mleFrame/s.rough.n(), 1)
		}
		return false, err
	}
	s.idle += o.Frame.CountIdle()
	s.round++
	return s.round >= s.rounds, nil
}

func (s *mleStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	return Result{
		Estimate: mleMaximize(s.idle, s.rounds*mleFrame, s.p, mleFrame),
		Rounds:   s.rounds + s.rough.rounds,
		Slots:    s.rounds*mleFrame + s.rough.slots,
		Guarded:  true,
		Cost:     cost,
		Seconds:  cost.Seconds(profile),
	}
}

// mleMaximize returns argmax_n ℓ(n) for idle idle slots out of total, with
// per-slot idle probability q(n) = (1−p/f)^n. Since all frames share (p, f)
// the sufficient statistic is the pooled idle count, and the MLE has the
// closed form q(n̂) = idle/total ⇒ n̂ = ln(idle/total)/ln(1−p/f); the
// golden-section search below exists to keep the estimator honest if the
// likelihood is later extended with per-frame parameters, and to document
// that ℓ is unimodal. It returns the closed form when the search brackets
// degenerate.
func mleMaximize(idle, total int, p float64, f int) float64 {
	rho := clampRho(float64(idle)/float64(total), total)
	lq := math.Log1p(-p / float64(f))
	closed := math.Log(rho) / lq

	ll := func(n float64) float64 {
		q := math.Exp(n * lq)
		q = clampRho(q, 1<<30)
		return float64(idle)*math.Log(q) + float64(total-idle)*math.Log(1-q)
	}
	lo, hi := closed/4, closed*4+16
	if lo < 0 {
		lo = 0
	}
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := ll(x1), ll(x2)
	for i := 0; i < 120 && b-a > 1e-6*(1+b); i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = ll(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = ll(x1)
		}
	}
	return (a + b) / 2
}
