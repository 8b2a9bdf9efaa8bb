package channel

import "rfidest/internal/xrand"

// CaptureEngine models the capture effect: when several tags collide in a
// slot, the reader sometimes decodes the strongest reply anyway, so a
// collision is observed as a singleton with probability CaptureProb.
//
// Capture is invisible to bit-slot protocols (busy is busy), but it biases
// every scheme that counts singletons or collisions: UPE under-counts
// collisions (under-estimating n) and an inventory ACKs a tag while the
// losers silently retry. The capture ablation quantifies the first effect;
// the paper's protocols are immune by construction, which this wrapper
// makes testable.
type CaptureEngine struct {
	Inner OccupancyEngine
	// CaptureProb is the probability a collision slot is read as a
	// singleton (typical measured values run 0.1–0.5 depending on
	// geometry and power).
	CaptureProb float64
	rng         *xrand.Rand
}

// NewCaptureEngine wraps inner with the given capture probability.
func NewCaptureEngine(inner OccupancyEngine, captureProb float64, seed uint64) *CaptureEngine {
	if captureProb < 0 || captureProb > 1 {
		panic("channel: capture probability out of [0,1]")
	}
	return &CaptureEngine{
		Inner:       inner,
		CaptureProb: captureProb,
		rng:         xrand.NewStream(seed, 0xca97),
	}
}

// Size implements Engine.
func (e *CaptureEngine) Size() int { return e.Inner.Size() }

// CheckFrame implements FrameChecker by asking the wrapped engine.
func (e *CaptureEngine) CheckFrame(req FrameRequest) error { return CheckFrame(e.Inner, req) }

// RunFrame implements Engine. Capture does not change busy/idle.
func (e *CaptureEngine) RunFrame(req FrameRequest) BitVec {
	return e.Inner.RunFrame(req)
}

// FirstResponse implements Engine (unchanged by capture).
func (e *CaptureEngine) FirstResponse(req FrameRequest, maxScan int) int {
	return e.Inner.FirstResponse(req, maxScan)
}

// RunFrameOccupancy implements OccupancyEngine: collision slots read as
// Single with probability CaptureProb.
func (e *CaptureEngine) RunFrameOccupancy(req FrameRequest) Occupancy {
	occ := e.Inner.RunFrameOccupancy(req)
	for i, s := range occ {
		if s == Collision && e.rng.Bernoulli(e.CaptureProb) {
			occ[i] = Single
		}
	}
	return occ
}

// TagTransmissions implements EnergyMeter by delegation.
func (e *CaptureEngine) TagTransmissions() int {
	if m, ok := e.Inner.(EnergyMeter); ok {
		return m.TagTransmissions()
	}
	return -1
}
