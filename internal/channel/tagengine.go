package channel

import (
	"fmt"
	"math/bits"

	"rfidest/internal/hash"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// HashMode selects the tag-side hash/persistence implementation the
// TagEngine executes.
type HashMode int

const (
	// IdealRN hashes the tag's prestored random number RN with an ideal
	// 64-bit mixer and makes persistence decisions from hash bits. This is
	// the default: like the paper's scheme it depends only on RN (so tagID
	// distribution is irrelevant by construction) but has no quantization
	// bias.
	IdealRN HashMode = iota
	// IdealID hashes the tagID itself with an ideal mixer. Estimation
	// robustness across T1/T2/T3 under this mode demonstrates that a good
	// hash absorbs any ID distribution.
	IdealID
	// PaperXOR executes §IV-E.2/§IV-E.3: slot selection is
	// bitget(RN ⊕ RS_j, log2(w):1) and persistence compares 10 bits of RN
	// against the broadcast numerator (probability p_n/1024; see
	// hash.PaperPersistence for the off-by-one in the paper's text).
	// Requires power-of-two W.
	PaperXOR
)

// String names the hash mode.
func (m HashMode) String() string {
	switch m {
	case IdealRN:
		return "ideal-rn"
	case IdealID:
		return "ideal-id"
	case PaperXOR:
		return "paper-xor"
	default:
		return "unknown"
	}
}

// TagEngine executes frames by iterating every tag and running the
// tag-side algorithm, giving per-tag fidelity at O(n·k) per frame.
//
// An engine belongs to exactly one reader session and is driven by one
// goroutine: the frame buffer and the energy counter are written on every
// frame without synchronization. Pop, however, is only read, so any
// number of sessions may share one population — which is how a shared
// System supports concurrent estimation (it builds a fresh engine per
// session).
type TagEngine struct {
	Pop  *tags.Population
	Mode HashMode

	buf frameBuf

	// transmissions counts tag responses executed so far (EnergyMeter).
	// A tag whose selected slot lies beyond the observed prefix never
	// reaches it (the reader terminates the frame) and is not counted.
	transmissions int
}

// NewTagEngine returns a per-tag engine over pop using mode.
func NewTagEngine(pop *tags.Population, mode HashMode) *TagEngine {
	return &TagEngine{Pop: pop, Mode: mode}
}

// Size returns the ground-truth cardinality.
func (e *TagEngine) Size() int { return e.Pop.N() }

// RunFrame implements Engine.
func (e *TagEngine) RunFrame(req FrameRequest) BitVec {
	observe := req.validate()
	busy := e.buf.bits(req.W, observe)
	e.scatter(req, observe, frameOut{busy: busy})
	return busy
}

// RunFrameOccupancy implements OccupancyEngine, building the observed
// prefix's slot states in place.
func (e *TagEngine) RunFrameOccupancy(req FrameRequest) Occupancy {
	observe := req.validate()
	states := e.buf.slotStates(req.W, observe)
	e.scatter(req, observe, frameOut{states: states})
	return states
}

// CheckFrame implements FrameChecker. Paper-hash tags select a uniform
// slot from the low log2(W) bits of RN ⊕ RS (§IV-E.2), which addresses
// only a power-of-two frame of at least 2 slots.
func (e *TagEngine) CheckFrame(req FrameRequest) error {
	if e.Mode == PaperXOR && req.Dist == Uniform && (req.W < 2 || req.W&(req.W-1) != 0) {
		return fmt.Errorf("%w: paper-hash tags need a power-of-two frame of at least 2 slots, not %d", ErrUnsupportedRound, req.W)
	}
	return nil
}

// FirstResponse implements Engine. It avoids materializing the frame by
// tracking the minimum selected slot across tags. Only the tags that
// actually reach the air — those in the first busy slot — are charged a
// transmission (the reader terminates the frame there).
func (e *TagEngine) FirstResponse(req FrameRequest, maxScan int) int {
	req.Observe = 0 // first-response scans ignore Observe
	req.validate()
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	min := -1
	txAtMin := 0
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		for j := 0; j < req.K; j++ {
			slot, responds := e.tagDecision(tag, req, j)
			if !responds || slot >= maxScan {
				continue
			}
			switch {
			case min == -1 || slot < min:
				min = slot
				txAtMin = 1
			case slot == min:
				txAtMin++
			}
		}
	}
	e.transmissions += txAtMin
	return min
}

// scatter runs every tag's responses into out and meters them. Only the
// observed prefix is written: a response past it never reaches the
// reader, which terminated the frame.
func (e *TagEngine) scatter(req FrameRequest, observe int, out frameOut) {
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		for j := 0; j < req.K; j++ {
			if slot, responds := e.tagDecision(tag, req, j); responds && slot < observe {
				out.add(slot, 1)
				e.transmissions++
			}
		}
	}
}

// SlotFor returns the slot that a tag selects for hash j of a frame, under
// the given hash mode — the same computation the engine's tags perform.
// Reader-side protocols that precompute expected slots (missing-tag
// detection) use it so their view of the hash is the engine's by
// construction.
func SlotFor(tag tags.Tag, mode HashMode, dist SlotDist, seed uint64, j, w int) int {
	switch mode {
	case PaperXOR:
		rs := uint32(xrand.Combine(seed, uint64(j)))
		if dist == Geometric {
			return hash.GeometricSlot(uint64(tag.RN^rs), seed, w-1)
		}
		return hash.PaperTagHashW(tag.RN, rs, w)
	case IdealID, IdealRN:
		key := uint64(tag.RN)
		if mode == IdealID {
			key = tag.ID
		}
		seedJ := xrand.Combine(seed, uint64(j))
		if dist == Geometric {
			return hash.GeometricSlot(key, seedJ, w-1)
		}
		return hash.UniformSlot(key, seedJ, w)
	default:
		panic("channel: unknown hash mode")
	}
}

// tagDecision runs the tag-side algorithm for hash j: which slot the tag
// selects and whether it actually responds there (p-persistence).
func (e *TagEngine) tagDecision(tag *tags.Tag, req FrameRequest, j int) (slot int, responds bool) {
	slot = SlotFor(*tag, e.Mode, req.Dist, req.Seed, j, req.W)
	switch e.Mode {
	case PaperXOR:
		rs := uint32(xrand.Combine(req.Seed, uint64(j)))
		pn := int(req.P*1024 + 0.5)
		// The 10 persistence bits must come from RN bits the slot hash does
		// not use (otherwise responders concentrate on a slot subset):
		// slot uses the low log2(w) bits, so rotate the window above them.
		base := uint(bits.Len(uint(req.W)) - 1)
		span := uint(1)
		if base < 22 {
			span = 23 - base
		} else {
			base = 22
		}
		rot := base + (uint(rs>>27)+uint(j))%span
		responds = hash.PaperPersistence(tag.RN, rot, pn)
		return slot, responds
	case IdealID, IdealRN:
		key := uint64(tag.RN)
		if e.Mode == IdealID {
			key = tag.ID
		}
		if req.P >= 1 {
			return slot, true
		}
		if req.P <= 0 {
			return slot, false
		}
		// Persistence from an independent hash stream (the tag's "coin").
		responds = hash.UniformFloat(key, xrand.Combine(req.Seed, uint64(j), 0x9e37)) < req.P
		return slot, responds
	default:
		panic("channel: unknown hash mode")
	}
}
