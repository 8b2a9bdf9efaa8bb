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
// Each frame's hash seeds, persistence threshold and paper-hash rotations
// are derived once per frame (TagHash). Under the ideal modes a tag then
// mixes its key once and flips each hash's persistence coin before its
// slot hash, so a silent decision costs one mix; under PaperXOR one
// bit-sliced comparison over the population's RN planes flips 64 tags'
// coins at once.
//
// An engine belongs to exactly one reader session and is driven by one
// goroutine: the frame buffer and the energy counter are written on every
// frame without synchronization. Pop, however, is only read (its RN
// planes are built once, safely, by whichever session needs them first),
// so any number of sessions may share one population — which is how a
// shared System supports concurrent estimation (it builds a fresh engine
// per session).
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

// CheckFrame implements FrameChecker.
func (e *TagEngine) CheckFrame(req FrameRequest) error {
	return checkTagFrame(e.Mode, req)
}

// checkTagFrame refuses a frame tags hashing under mode cannot address.
// Paper-hash tags select a uniform slot from the low log2(W) bits of
// RN ⊕ RS (§IV-E.2), which addresses only a power-of-two frame of at least
// 2 slots.
func checkTagFrame(mode HashMode, req FrameRequest) error {
	if mode == PaperXOR && req.Dist == Uniform && (req.W < 2 || req.W&(req.W-1) != 0) {
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
	r := responses{limit: maxScan, first: true}
	e.run(req, &r)
	e.transmissions += r.n
	if r.n == 0 {
		return -1
	}
	return r.limit - 1
}

// scatter runs every tag's responses into out and meters them. Only the
// observed prefix is written: a response past it never reaches the
// reader, which terminated the frame.
func (e *TagEngine) scatter(req FrameRequest, observe int, out frameOut) {
	r := responses{out: out, limit: observe}
	e.run(req, &r)
	e.transmissions += r.n
}

// run delivers every tag's responses to frame req into r, preparing the
// frame's hashes hashGroup at a time. Each tag flips a hash's persistence
// coin before its slot hash.
func (e *TagEngine) run(req FrameRequest, r *responses) {
	for j0 := 0; j0 < req.K; j0 += hashGroup {
		h := prepareTagHash(e.Mode, req, j0)
		if h.mode == PaperXOR {
			h.runPaper(e.Pop, r)
		} else {
			h.runIdeal(e.Pop.Tags, r)
		}
	}
}

// responses is where a frame's tags deliver the responses that reach the
// reader: a slot below limit is received, n counts the received responses.
// A first-response scan keeps only the earliest slot: each earlier slot
// lowers limit to just past itself and restarts the count, so at the end
// limit−1 is the first busy slot and n its transmissions.
type responses struct {
	out   frameOut
	limit int
	n     int
	first bool
}

// hit receives one tag's response in slot.
func (r *responses) hit(slot int) {
	if slot >= r.limit {
		return
	}
	if !r.first {
		r.out.add(slot, 1)
	} else if slot+1 < r.limit {
		r.limit, r.n = slot+1, 0
	}
	r.n++
}

// hashGroup is how many of a frame's hashes one TagHash holds. Every
// protocol in the repository announces k ≤ 8 (BFCE's k = 3; the k ablation
// stops at 8), so a frame is one group; a frame with more hashes visits
// the population once per group.
const hashGroup = 8

// TagHash is the tag side of a frame, prepared once per frame: for each of
// up to hashGroup consecutive hashes, the seed of the slot hash and of the
// persistence coin (ideal modes), or RS and the persistence rotation
// (PaperXOR), plus the frame's persistence threshold. It is Algorithm 2's
// tag side: the engines' frames and the reader-side precomputations that
// need the tags' slots (missing-tag detection) all run it.
type TagHash struct {
	mode HashMode
	dist SlotDist
	w    int
	seed uint64 // frame seed: paper-hash geometric slots hash RN ⊕ RS under it

	thresh uint64 // ideal modes: hash j responds iff Uniform64(key, coin_j)>>11 < thresh
	pn     int    // PaperXOR: the persistence numerator p_n
	mask   uint32 // PaperXOR uniform frames: W − 1

	j0     int // the first hash held, hashes[0]
	n      int // hashes held
	hashes [hashGroup]preparedHash
}

// preparedHash is one hash's share of a TagHash.
type preparedHash struct {
	slot uint64 // ideal modes: the slot hash's seed; PaperXOR: RS
	coin uint64 // ideal modes: the coin's seed; PaperXOR: the rotation
}

// PrepareTagHash prepares the tag side of frame req's first hashes, up to
// hashGroup of them, for tags hashing under mode. It panics, like the
// engines, on a frame those tags cannot address (see CheckFrame).
func PrepareTagHash(mode HashMode, req FrameRequest) TagHash {
	return prepareTagHash(mode, req, 0)
}

// prepareTagHash prepares hashes j0 .. j0+hashGroup−1 of frame req, or up
// to its last.
func prepareTagHash(mode HashMode, req FrameRequest, j0 int) TagHash {
	if err := checkTagFrame(mode, req); err != nil {
		panic(err)
	}
	h := TagHash{mode: mode, dist: req.Dist, w: req.W, seed: req.Seed, j0: j0, n: min(req.K-j0, hashGroup)}
	switch mode {
	case PaperXOR:
		if req.P > 0 {
			h.pn = int(req.P*1024 + 0.5)
		}
		h.mask = uint32(req.W - 1)
		// The 10 persistence bits must come from RN bits the slot hash
		// does not use (otherwise responders concentrate on a slot
		// subset): the slot uses the low log2(W) bits, so rotate the
		// window above them.
		base := uint(bits.Len(uint(req.W)) - 1)
		span := uint(1)
		if base < 22 {
			span = 23 - base
		} else {
			base = 22
		}
		for i := range h.n {
			j := j0 + i
			rs := uint32(xrand.Combine(req.Seed, uint64(j)))
			h.hashes[i] = preparedHash{slot: uint64(rs), coin: uint64(base + (uint(rs>>27)+uint(j))%span)}
		}
	case IdealRN, IdealID:
		// Persistence comes from an independent hash stream (the tag's
		// "coin").
		h.thresh = hash.FloatThreshold(req.P)
		for i := range h.n {
			j := uint64(j0 + i)
			h.hashes[i] = preparedHash{slot: xrand.Combine(req.Seed, j), coin: xrand.Combine(req.Seed, j, 0x9e37)}
		}
	default:
		panic("channel: unknown hash mode")
	}
	return h
}

// runPaper delivers the responses of PaperXOR tags to r, 64 tags at a
// time: for each block of the population's RN planes and each hash, one
// bit-sliced comparison gives the lanes whose coin (10 bits of RN from the
// hash's rotation up) is below p_n, and only those tags compute their
// slot, the low bits of RN ⊕ RS. Responses land by OR, saturating add or
// a first-response minimum, so the order tags are visited in is free.
func (h *TagHash) runPaper(pop *tags.Population, r *responses) {
	if h.pn <= 0 {
		return
	}
	ts, planes := pop.Tags, pop.RNPlanes()
	hs := h.hashes[:h.n]
	for b := 0; b < len(planes); b += 32 {
		blk := (*[32]uint64)(planes[b:])
		t0 := b * 2
		lanes := ^uint64(0)
		if rest := len(ts) - t0; rest < 64 {
			lanes = 1<<rest - 1 // a missing lane reads RN = 0, below every p_n
		}
		for i := range hs {
			for m := below(blk, uint(hs[i].coin), h.pn) & lanes; m != 0; m &= m - 1 {
				r.hit(h.paperSlot(ts[t0+bits.TrailingZeros64(m)].RN, hs[i].slot))
			}
		}
	}
}

// below returns the lanes of a block of RN planes whose 10-bit field from
// plane rot up is below pn, for rot < 23 and pn in [0, 1024]: a comparator
// run from the field's low bit up, where lt holds the lanes whose bits so
// far are below pn's. Below pn's lowest set bit no lane can be below.
func below(blk *[32]uint64, rot uint, pn int) uint64 {
	if pn >= 1024 {
		return ^uint64(0)
	}
	lt := uint64(0)
	for i := uint(bits.TrailingZeros(uint(pn))); i < 10; i++ {
		if x := blk[(rot+i)&31]; pn>>i&1 != 0 {
			lt |= ^x
		} else {
			lt &^= x
		}
	}
	return lt
}

// runIdeal delivers the responses of IdealRN and IdealID tags to r: each
// tag premixes its key once, and each hash finishes it under the coin's
// seed, then, if the tag responds, under the slot's seed.
func (h *TagHash) runIdeal(pop []tags.Tag, r *responses) {
	hs, thresh := h.hashes[:h.n], h.thresh
	for ti := range pop {
		key := hash.KeyOf(h.keyInput(&pop[ti]))
		for i := range hs {
			if key.Uniform64(hs[i].coin)>>11 < thresh {
				r.hit(h.idealSlot(key, hs[i].slot))
			}
		}
	}
}

// Slot returns the slot tag selects for the frame's hash j, one of the
// hashes h holds, whether or not its persistence coin lets it respond.
func (h *TagHash) Slot(tag *tags.Tag, j int) int {
	seed := h.hashes[:h.n][j-h.j0].slot
	if h.mode == PaperXOR {
		return h.paperSlot(tag.RN, seed)
	}
	return h.idealSlot(hash.KeyOf(h.keyInput(tag)), seed)
}

// keyInput is what an ideal-mode tag hashes: its RN, or under IdealID its
// ID.
func (h *TagHash) keyInput(tag *tags.Tag) uint64 {
	if h.mode == IdealID {
		return tag.ID
	}
	return uint64(tag.RN)
}

// idealSlot is the ideal modes' slot for a premixed key under a slot seed.
func (h *TagHash) idealSlot(key hash.Key, seed uint64) int {
	if h.dist == Geometric {
		return key.GeometricSlot(seed, h.w-1)
	}
	return hash.Reduce(key.Uniform64(seed), h.w)
}

// paperSlot is PaperXOR's slot for a tag's RN under RS: bitget(RN ⊕ RS,
// log2(W):1) in a uniform frame, a geometric slot of RN ⊕ RS under the
// frame seed in a lottery frame.
func (h *TagHash) paperSlot(rn uint32, rs uint64) int {
	x := rn ^ uint32(rs)
	if h.dist == Geometric {
		return hash.GeometricSlot(uint64(x), h.seed, h.w-1)
	}
	return int(x & h.mask)
}
