package channel

import "rfidest/internal/obs"

// SlotState is the reader-side view of one framed-Aloha slot when slots are
// long enough (carrying a short payload rather than a single bit) for the
// reader to distinguish collisions — the channel model of the pre-bit-slot
// estimators UPE and EZB [17][18].
type SlotState uint8

const (
	// Empty: no tag transmitted in the slot.
	Empty SlotState = iota
	// Single: exactly one tag transmitted (decodable reply).
	Single
	// Collision: two or more tags transmitted.
	Collision
)

// String names the slot state.
func (s SlotState) String() string {
	switch s {
	case Empty:
		return "empty"
	case Single:
		return "single"
	case Collision:
		return "collision"
	default:
		return "invalid"
	}
}

// Occupancy is a frame observed at slot-state granularity.
type Occupancy []SlotState

// Count returns how many slots are in state s.
func (o Occupancy) Count(s SlotState) int {
	n := 0
	for _, v := range o {
		if v == s {
			n++
		}
	}
	return n
}

// OccupancyEngine is implemented by engines that can also execute frames at
// slot-state granularity. All engines in this package implement it.
type OccupancyEngine interface {
	Engine
	// RunFrameOccupancy executes one frame and returns the empty/single/
	// collision state of the first Observe slots. Like RunFrame's frame,
	// the returned states may alias an engine-owned buffer and are valid
	// until the engine's next call.
	RunFrameOccupancy(req FrameRequest) Occupancy
}

// RunFrameOccupancy implements OccupancyEngine for the noisy wrapper: an
// empty slot reads as a phantom singleton with probability FalseBusy, and a
// singleton is missed (reads empty) with probability FalseIdle. Collisions
// are loud enough to always be detected.
func (e *NoisyEngine) RunFrameOccupancy(req FrameRequest) Occupancy {
	inner, ok := e.Inner.(OccupancyEngine)
	if !ok {
		panic("channel: inner engine does not support occupancy frames")
	}
	occ := inner.RunFrameOccupancy(req)
	for i, s := range occ {
		switch s {
		case Empty:
			if e.rng.Bernoulli(e.FalseBusy) {
				occ[i] = Single
			}
		case Single:
			if e.rng.Bernoulli(e.FalseIdle) {
				occ[i] = Empty
			}
		}
	}
	return occ
}

// executeFrameOccupancy runs a slot-state frame and charges the clock
// slotBits tag bits per observed slot (Aloha slots carry a short payload,
// unlike 1-bit bit-slots). Observers see it as a frame of len(occ) slots
// whose non-empty slots are busy.
func (r *Reader) executeFrameOccupancy(req FrameRequest, slotBits int) Occupancy {
	eng, ok := r.Engine.(OccupancyEngine)
	if !ok {
		panic("channel: engine does not support occupancy frames")
	}
	if slotBits < 1 {
		panic("channel: slotBits must be positive")
	}
	occ := eng.RunFrameOccupancy(req)
	r.clock.Listen(len(occ) * slotBits)
	r.drainStall()
	busy := len(occ) - occ.Count(Empty)
	r.obs.Frame(r.phase, obs.FrameStats{W: req.W, Observed: len(occ), Busy: busy})
	r.emit(TraceEvent{
		Kind: "frame", W: req.W, K: req.K, P: req.P,
		Observe: len(occ), Busy: busy,
	})
	return occ
}
