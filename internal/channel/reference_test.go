package channel

import (
	"math"
	"math/bits"

	"rfidest/internal/hash"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// This file retains, for tests only, the pre-packing []bool frame
// representation as the behavioral reference for the word-packed BitVec,
// the per-slot count scatter the engines ran before they sampled straight
// into their frame buffers (BallsEngine's exact law, and its law regime
// by regime), and the per-tag decision TagEngine ran before it prepared
// each frame's hashes once (TagHash): equivalence tests cross-check engine
// output, transmission metering and aggregate queries against these
// implementations on randomized frames, and the frame benchmarks use them
// as the speedup baseline.

// refVec is a frame in the reference representation: refVec[i] reports
// whether slot i was busy.
type refVec []bool

// countBusy is the reference CountBusy: one branch per slot.
func (b refVec) countBusy() int {
	n := 0
	for _, busy := range b {
		if busy {
			n++
		}
	}
	return n
}

// countIdle is the reference CountIdle.
func (b refVec) countIdle() int { return len(b) - b.countBusy() }

// rhoIdle is the reference RhoIdle.
func (b refVec) rhoIdle() float64 {
	if len(b) == 0 {
		return 0
	}
	return float64(b.countIdle()) / float64(len(b))
}

// firstBusy is the reference FirstBusy.
func (b refVec) firstBusy() int {
	for i, busy := range b {
		if busy {
			return i
		}
	}
	return -1
}

// firstIdle is the reference FirstIdle: a fully busy frame reports its
// length.
func (b refVec) firstIdle() int {
	for i, busy := range b {
		if !busy {
			return i
		}
	}
	return len(b)
}

// runCount is the reference RunCount: a run starts at each busy slot
// whose predecessor is idle.
func (b refVec) runCount() int {
	runs := 0
	for i, busy := range b {
		if busy && (i == 0 || !b[i-1]) {
			runs++
		}
	}
	return runs
}

// refSlotFor is the slot a tag selects for hash j of a frame, computed per
// tag from the frame seed, as the TagEngine did before TagHash.
func refSlotFor(tag tags.Tag, mode HashMode, dist SlotDist, seed uint64, j, w int) int {
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

// tagDecision runs the tag-side algorithm for hash j exactly as the
// TagEngine did before TagHash: which slot the tag selects and whether it
// actually responds there (p-persistence), every seed re-derived per tag.
func (e *TagEngine) tagDecision(tag *tags.Tag, req FrameRequest, j int) (slot int, responds bool) {
	slot = refSlotFor(*tag, e.Mode, req.Dist, req.Seed, j, req.W)
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

// refFirstResponse scans a frame for its first busy slot exactly as the
// TagEngine did before TagHash, metering the first slot's transmissions.
func (e *TagEngine) refFirstResponse(req FrameRequest, maxScan int) int {
	req.Observe = 0
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

// refRunFrame executes one frame exactly as the pre-packing TagEngine did,
// scattering into a []bool. It meters transmissions identically, so a twin
// engine driven through it stays in lockstep with one driven through
// RunFrame.
func (e *TagEngine) refRunFrame(req FrameRequest) refVec {
	observe := req.validate()
	busy := make([]bool, req.W)
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		for j := 0; j < req.K; j++ {
			slot, responds := e.tagDecision(tag, req, j)
			if responds {
				busy[slot] = true
				if slot < observe {
					e.transmissions++
				}
			}
		}
	}
	return refVec(busy[:observe])
}

// refRunFrameOccupancy executes one slot-state frame exactly as the
// TagEngine did before it built slot states in place: per-slot counts
// over the whole announced frame, mapped to states over the observed
// prefix.
func (e *TagEngine) refRunFrameOccupancy(req FrameRequest) Occupancy {
	observe := req.validate()
	counts := make([]int, req.W)
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		for j := 0; j < req.K; j++ {
			slot, responds := e.tagDecision(tag, req, j)
			if responds {
				counts[slot]++
				if slot < observe {
					e.transmissions++
				}
			}
		}
	}
	occ := make(Occupancy, observe)
	for i := range occ {
		occ[i] = stateOf(counts[i])
	}
	return occ
}

// busyOf maps per-slot counts to the busy bits a reader senses.
func busyOf(counts []int) refVec {
	busy := make(refVec, len(counts))
	for i, c := range counts {
		busy[i] = c > 0
	}
	return busy
}

// statesOf maps per-slot counts to slot states.
func statesOf(counts []int) Occupancy {
	occ := make(Occupancy, len(counts))
	for i, c := range counts {
		occ[i] = stateOf(c)
	}
	return occ
}

// refCounts draws a frame's response count from the engine's stream for
// the frame, as scatter does, lets law place the responses, and returns
// the observed prefix's per-slot counts, metering their transmissions.
func (e *BallsEngine) refCounts(req FrameRequest, law func(rng *xrand.Rand, balls int, req FrameRequest, observe int) []int) []int {
	observe := req.validate()
	rng := e.frameRNG(req)
	counts := law(&rng, rng.Binomial(e.N*req.K, req.P), req, observe)[:observe]
	for _, c := range counts {
		e.transmissions += c
	}
	return counts
}

// refPlaced runs one frame through refCounts under scatter's law and
// returns its counts and the regime that placed it (scatterPlaced).
func (e *BallsEngine) refPlaced(req FrameRequest) (counts []int, how string) {
	counts = e.refCounts(req, func(rng *xrand.Rand, balls int, req FrameRequest, observe int) []int {
		var c []int
		c, how = scatterPlaced(rng, balls, req, observe)
		return c
	})
	return counts, how
}

// wholeFrame is the exact law: every response is placed over all W
// slots, heard or not, one by one or by sequential splitting.
func wholeFrame(rng *xrand.Rand, balls int, req FrameRequest, _ int) []int {
	counts, _ := placeCounts(rng, balls, req)
	return counts
}

// scatterPlaced places a frame as scatter does and names the regime that
// placed it. A uniform frame heard on a prefix first draws how many
// responses land there, Binomial(balls, observe/W), and is placed as a
// frame of observe slots. Then: a one-slot frame takes every response; a
// lottery frame heard whole spreads the responses that stop in its head
// over the head and throws the ones that pass it, Binomial(balls,
// 2^-head), from the head on ("lottery head"; "lottery" without a head);
// a saturated uniform frame spreads every response evenly, two or more
// per slot; any other frame is placed exactly (placeCounts).
func scatterPlaced(rng *xrand.Rand, balls int, req FrameRequest, observe int) ([]int, string) {
	if balls > 0 && observe < req.W && req.Dist == Uniform {
		balls = rng.Binomial(balls, float64(observe)/float64(req.W))
		req.W = observe
	}
	counts := make([]int, req.W)
	switch {
	case balls == 0:
		return counts, "silent"
	case req.W == 1:
		counts[0] = balls
		return counts, "one slot"
	case req.Dist == Geometric && observe == req.W:
		head := lotteryHead(balls, req.W)
		passed := balls
		if head > 0 {
			passed = rng.Binomial(balls, math.Ldexp(1, -head))
			spread(counts[:head], balls-passed)
		}
		last := req.W - 1 - head
		if last == 0 {
			counts[head] += passed
		} else {
			for i := 0; i < passed; i++ {
				counts[head+min(rng.GeometricHalf(), last)]++
			}
		}
		if head > 0 {
			return counts, "lottery head"
		}
		return counts, "lottery"
	case req.Dist == Uniform && saturates(balls, req.W):
		spread(counts, balls)
		return counts, "saturated"
	}
	return placeCounts(rng, balls, req)
}

// spread deals balls responses round the slots of counts.
func spread(counts []int, balls int) {
	for i := range counts {
		counts[i] = balls / len(counts)
		if i < balls%len(counts) {
			counts[i]++
		}
	}
}

// placeCounts distributes balls responses over a frame's W slots per
// the slot distribution into per-slot counts, exactly: one by one up to
// splitLoad responses per slot ("thrown"), and past that by sequential
// binomial splitting, bin_i ~ Bin(remaining, q_i / tail_i), over every
// slot ("split").
func placeCounts(rng *xrand.Rand, balls int, req FrameRequest) ([]int, string) {
	counts := make([]int, req.W)
	if balls <= splitLoad*req.W {
		for i := 0; i < balls; i++ {
			if req.Dist == Uniform {
				counts[rng.Intn(req.W)]++
			} else {
				counts[min(rng.GeometricHalf(), req.W-1)]++
			}
		}
		return counts, "thrown"
	}
	remaining := balls
	for i := 0; i < req.W-1 && remaining > 0; i++ {
		q := 0.5
		if req.Dist == Uniform {
			q = 1 / float64(req.W-i)
		}
		c := rng.Binomial(remaining, q)
		counts[i] = c
		remaining -= c
	}
	counts[req.W-1] += remaining
	return counts, "split"
}

// stateOf maps a slot's transmission count to its observed state.
func stateOf(count int) SlotState {
	switch {
	case count == 0:
		return Empty
	case count == 1:
		return Single
	default:
		return Collision
	}
}
