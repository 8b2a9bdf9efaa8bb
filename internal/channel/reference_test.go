package channel

import (
	"math/bits"

	"rfidest/internal/hash"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// This file retains, for tests only, the pre-packing []bool frame
// representation as the behavioral reference for the word-packed BitVec,
// the per-slot count scatter the engines ran before they sampled straight
// into their frame buffers (BallsEngine's with and without prefix
// thinning), and the per-tag decision TagEngine ran before it prepared
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

// refRunFrame executes one frame as the pre-packing BallsEngine did, from
// per-slot counts, with its heard prefix thinned as scatter thins it
// (heardPrefix). It advances the engine's RNG the same way as RunFrame, so
// twin engines with equal seeds replay identical frame sequences through
// either path.
func (e *BallsEngine) refRunFrame(req FrameRequest) refVec {
	return busyOf(e.refCounts(req, heardPrefix))
}

// refRunFrameOccupancy executes one slot-state frame as the counts-based
// BallsEngine did, keeping twin engines in lockstep like refRunFrame.
func (e *BallsEngine) refRunFrameOccupancy(req FrameRequest) Occupancy {
	return statesOf(e.refCounts(req, heardPrefix))
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

// wholeFrame is the law the engine sampled before it thinned heard
// prefixes: every response is placed over all W slots, heard or not.
func wholeFrame(rng *xrand.Rand, balls int, req FrameRequest, _ int) []int {
	return scatterCounts(rng, balls, req)
}

// heardPrefix is scatter's law: a uniform frame heard on a prefix first
// draws how many responses land there, Binomial(balls, observe/W), and
// places only those, as a frame of observe slots. Every other frame is
// placed whole.
func heardPrefix(rng *xrand.Rand, balls int, req FrameRequest, observe int) []int {
	if balls > 0 && observe < req.W && req.Dist == Uniform {
		balls = rng.Binomial(balls, float64(observe)/float64(req.W))
		req.W = observe
	}
	return scatterCounts(rng, balls, req)
}

// scatterCounts distributes balls responses over a frame's W slots per
// the slot distribution into per-slot counts. When the number of
// responses is large relative to the frame it switches from per-ball
// throwing to sequential binomial splitting (bin_i ~
// Bin(remaining, q_i / tail_i)) over every slot.
func scatterCounts(rng *xrand.Rand, balls int, req FrameRequest) []int {
	counts := make([]int, req.W)
	switch req.Dist {
	case Uniform:
		if balls <= 4*req.W {
			for i := 0; i < balls; i++ {
				counts[rng.Intn(req.W)]++
			}
			return counts
		}
		remaining := balls
		for i := 0; i < req.W-1 && remaining > 0; i++ {
			c := rng.Binomial(remaining, 1/float64(req.W-i))
			counts[i] = c
			remaining -= c
		}
		counts[req.W-1] += remaining
		return counts
	case Geometric:
		if balls <= 4*req.W {
			for i := 0; i < balls; i++ {
				j := rng.GeometricHalf()
				if j >= req.W {
					j = req.W - 1
				}
				counts[j]++
			}
			return counts
		}
		remaining := balls
		for j := 0; j < req.W-1 && remaining > 0; j++ {
			c := rng.Binomial(remaining, 0.5)
			counts[j] = c
			remaining -= c
		}
		counts[req.W-1] += remaining
		return counts
	default:
		panic("channel: unknown slot distribution")
	}
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
