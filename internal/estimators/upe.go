package estimators

import (
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/timing"
)

// UPE is the Unified Probabilistic Estimator of Kodialam and Nandagopal
// [17]. It runs framed slotted Aloha with a persistence probability and
// estimates the cardinality from the number of empty slots (the "zero
// estimator" of their paper; they also derive a collision-based variant,
// which CollisionBased selects).
//
// Structure here: a calibration phase halves p until the 1024-slot frame
// is no longer saturated, then R measurement frames are pooled, with R
// sized from the estimator variance at the operating load so the pooled
// estimate meets (ε, δ). Every frame is a slot-state round
// (channel.SlotStateRound), which a channel without slot states refuses
// before the first broadcast.
type UPE struct {
	// CollisionBased selects the collision estimator instead of the
	// zero estimator.
	CollisionBased bool
}

const (
	upeFrame     = 1024 // Aloha frame length
	upeMaxRounds = 256  // cap on the measurement phase
)

// NewUPE returns UPE with the zero estimator and a 1024-slot frame.
func NewUPE() *UPE { return &UPE{} }

// Name implements Estimator.
func (u *UPE) Name() string {
	if u.CollisionBased {
		return "UPE-collision"
	}
	return "UPE"
}

// Estimate implements Estimator.
func (u *UPE) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(u, r, acc)
}

// Stepper implements Estimator. Calibration starts from p = 1.
func (u *UPE) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	return &upeStepper{cfg: *u, acc: acc, p: 1}, nil
}

type upeStepper struct {
	cfg UPE
	acc Accuracy

	p          float64
	rounds     int
	measure    int // measurement frames; 0 while calibrating
	measured   int // measurement frames observed
	empty      int // empty slots over the measurement frames
	collisions int // collision slots over the measurement frames
}

func (s *upeStepper) Name() string { return s.cfg.Name() }

func (s *upeStepper) Plan() channel.RoundSpec {
	return channel.RoundSpec{
		Kind:      channel.SlotStateRound,
		Broadcast: timing.SeedBits + timing.PnBits,
		Frame:     channel.FrameRequest{W: upeFrame, K: 1, P: s.p},
	}
}

func (s *upeStepper) Absorb(o channel.RoundObs) (bool, error) {
	s.rounds++
	empty := o.Occupancy.Count(channel.Empty)
	if s.measure == 0 {
		// Calibration: halve p while the frame has (almost) no empty
		// slots, the load too high to invert.
		if empty <= upeFrame/100 && s.p >= 1e-7 {
			s.p /= 2
			return false, nil
		}
		// The last calibration frame doubles as the first measurement;
		// its load sizes the measurement phase.
		lambda := -math.Log(clampRho(float64(empty)/upeFrame, upeFrame))
		s.measure = frameRounds(s.acc, 1, lambda, upeFrame, upeMaxRounds)
	}
	s.empty += empty
	s.collisions += o.Occupancy.Count(channel.Collision)
	s.measured++
	return s.measured >= s.measure, nil
}

func (s *upeStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	m := s.measure * upeFrame
	var nhat float64
	if s.cfg.CollisionBased {
		nhat = collisionInvert(float64(s.collisions)/float64(m), upeFrame) / s.p
	} else {
		rho := clampRho(float64(s.empty)/float64(m), m)
		nhat = zeroEstimate(rho, s.p, upeFrame)
	}
	return Result{
		Estimate: nhat,
		Rounds:   s.rounds,
		Slots:    s.rounds * upeFrame,
		Guarded:  true,
		Cost:     cost,
		Seconds:  cost.Seconds(profile),
	}
}

func (s *upeStepper) Snapshot() any          { return *s }
func (s *upeStepper) Restore(snap any) error { return restore(s, snap) }

// collisionInvert solves for the per-frame load n·p from the collision
// fraction c = 1 − e^{-λ}(1+λ) (λ = n·p/f), by bisection, and returns n·p.
func collisionInvert(c float64, f int) float64 {
	if c <= 0 {
		return 0
	}
	if c >= 1 {
		c = 1 - 1e-9
	}
	lo, hi := 0.0, 64.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		got := 1 - math.Exp(-mid)*(1+mid)
		if got < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2 * float64(f)
}
