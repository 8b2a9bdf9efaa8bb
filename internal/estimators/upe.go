package estimators

import (
	"errors"
	"fmt"
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// AlohaSlotBits is the length of one framed-Aloha slot for the
// pre-bit-slot estimators (UPE, EZB): slots carry a short reply (we use 10
// bits), which is what lets the reader distinguish singletons from
// collisions but also makes each slot ~10× costlier than a bit-slot.
const AlohaSlotBits = 10

// UPE is the Unified Probabilistic Estimator of Kodialam and Nandagopal
// [17]. It runs framed slotted Aloha with a persistence probability and
// estimates the cardinality from the number of empty slots (the "zero
// estimator" of their paper; they also derive a collision-based variant,
// which CollisionBased selects).
//
// Structure here: a calibration phase halves p until the frame is no
// longer saturated, then R measurement frames are pooled, with R sized
// from the estimator variance at the operating load so the pooled
// estimate meets (ε, δ).
type UPE struct {
	// FrameSize is the Aloha frame length (default 1024 slots).
	FrameSize int
	// CollisionBased selects the collision estimator instead of the
	// zero estimator.
	CollisionBased bool
	// MaxRounds caps the measurement phase (default 256).
	MaxRounds int
}

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
	if r == nil {
		return Result{}, errors.New("estimators: nil session")
	}
	// Refuse before the first broadcast, so a refused run costs no air
	// time: fault injection (faults.Engine) does not model slot states.
	if _, ok := r.Engine.(channel.OccupancyEngine); !ok {
		return Result{}, fmt.Errorf("estimators: UPE needs slot-state frames, which a %T channel does not model", r.Engine)
	}
	acc.Validate()
	start := r.Cost()
	f := u.FrameSize
	if f <= 0 {
		f = 1024
	}
	maxRounds := u.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 256
	}

	// Calibration: halve p while the frame has no empty slots (load too
	// high to invert), starting from p = 1.
	p := 1.0
	rounds := 0
	slots := 0
	var occ channel.Occupancy
	for {
		r.BroadcastParams(timing.SeedBits + timing.PnBits)
		occ = r.ExecuteFrameOccupancy(channel.FrameRequest{
			W: f, K: 1, P: p, Seed: r.NextSeed(),
		}, AlohaSlotBits)
		rounds++
		slots += f
		if occ.Count(channel.Empty) > f/100 || p < 1e-7 {
			break
		}
		p /= 2
	}

	// The calibration frame doubles as the first measurement; estimate
	// the load to size the measurement phase.
	lambda := -math.Log(clampRho(float64(occ.Count(channel.Empty))/float64(f), f))
	d := stats.D(acc.Delta)
	need := d * d * (math.Exp(lambda) - 1) /
		(acc.Epsilon * acc.Epsilon * lambda * lambda * float64(f))
	measure := int(math.Ceil(need))
	if measure < 1 {
		measure = 1
	}
	if measure > maxRounds {
		measure = maxRounds
	}

	empty := occ.Count(channel.Empty)
	collision := occ.Count(channel.Collision)
	for i := 1; i < measure; i++ {
		r.BroadcastParams(timing.SeedBits + timing.PnBits)
		occ := r.ExecuteFrameOccupancy(channel.FrameRequest{
			W: f, K: 1, P: p, Seed: r.NextSeed(),
		}, AlohaSlotBits)
		empty += occ.Count(channel.Empty)
		collision += occ.Count(channel.Collision)
		slots += f
		rounds++
	}

	m := measure * f
	var nhat float64
	if u.CollisionBased {
		nhat = collisionInvert(float64(collision)/float64(m), f) / p
	} else {
		rho := clampRho(float64(empty)/float64(m), m)
		nhat = zeroEstimate(rho, p, f)
	}
	res := Result{
		Estimate: nhat,
		Rounds:   rounds,
		Slots:    slots,
		Guarded:  true,
	}
	res.Cost = r.Cost().Sub(start)
	res.Seconds = res.Cost.Seconds(r.Profile)
	return res, nil
}

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
