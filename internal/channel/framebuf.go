package channel

import "rfidest/internal/bitset"

// frameBuf is an engine's one frame buffer. Every frame the engine
// returns — RunFrame's BitVec, RunFrameOccupancy's Occupancy — aliases it
// until the engine's next call (see Engine.RunFrame), so a session
// allocates its frame storage once instead of once per frame. It lives
// and dies with its engine, and an engine serves one session.
type frameBuf struct {
	busy   bitset.Set
	states Occupancy
}

// bits resets the buffer to an all-idle frame of observe slots, announced
// as w slots. The words are sized to w, so a session's first frame sizes
// the buffer for every observed prefix of that geometry (BFCE observes 32,
// then 1,024, then all 8,192 slots of w = 8,192).
func (f *frameBuf) bits(w, observe int) BitVec {
	f.busy.Reset(w)
	f.busy.Truncate(observe)
	return BitVec{bits: &f.busy}
}

// slotStates resets the buffer to observe Empty slot states, sized to w
// like bits.
func (f *frameBuf) slotStates(w, observe int) Occupancy {
	if cap(f.states) < w {
		f.states = make(Occupancy, w)
	}
	f.states = f.states[:observe]
	clear(f.states)
	return f.states
}

// frameOut is where an engine's scatter lands: the busy bits of a
// bit-slot frame, or the slot states of a slot-state frame when states is
// non-nil. Engines only add slots inside the observed prefix.
type frameOut struct {
	busy   BitVec
	states Occupancy
}

// add records c > 0 responses in slot. Slot states saturate: a slot that
// already holds a response, or receives two, is a Collision.
func (o frameOut) add(slot, c int) {
	if o.states == nil {
		o.busy.setBusy(slot)
		return
	}
	o.states[slot] = min(o.states[slot]+SlotState(min(c, 2)), Collision)
}

// fill records two or more responses in each of the first n slots of a
// fresh frame: busy, or Collision.
func (o frameOut) fill(n int) {
	if o.states == nil {
		o.busy.bits.SetFirst(n)
		return
	}
	for i := range o.states[:n] {
		o.states[i] = Collision
	}
}

// addEach records one response in each of slots that falls inside the
// observed prefix and returns how many did: one loop per frame kind, so
// nothing branches on the kind per response.
func (o frameOut) addEach(slots []uint64) (landed int) {
	if o.states == nil {
		observe := uint64(o.busy.Len())
		for _, s := range slots {
			if s < observe {
				o.busy.setBusy(int(s))
				landed++
			}
		}
		return landed
	}
	states, observe := o.states, uint64(len(o.states))
	for _, s := range slots {
		if s < observe {
			states[s] = min(states[s]+1, Collision)
			landed++
		}
	}
	return landed
}
