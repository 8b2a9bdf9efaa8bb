package channel

import (
	"math"

	"rfidest/internal/xrand"
)

// BallsEngine samples frame outcomes from the exact occupancy distribution
// of the tag process without iterating tags: the number of responses is
// Binomial(n·k, p) (each of the n·k (tag, hash) pairs responds
// independently with probability p) and responses land in slots according
// to the configured slot distribution. For ideal hashing this is the same
// stochastic process as TagEngine — see TestEnginesAgree — at O(n·k·p + w)
// per frame instead of O(n·k), which makes protocols that run thousands of
// frames (ZOE) tractable in large sweeps.
//
// Like every engine, a BallsEngine is single-session state (its RNG,
// frame buffer and energy counter advance on every frame) — one goroutine
// drives it for its whole life. Concurrency happens one level up, with one
// engine per session.
type BallsEngine struct {
	N   int // ground-truth population size
	rng xrand.Rand
	buf frameBuf

	// transmissions counts sampled tag responses so far (EnergyMeter).
	transmissions int
}

// NewBallsEngine returns a synthetic engine for a population of n tags.
// Frame outcomes are deterministic given (seed, frame seeds).
func NewBallsEngine(n int, seed uint64) *BallsEngine {
	if n < 0 {
		panic("channel: negative population size")
	}
	return &BallsEngine{N: n, rng: xrand.MakeStream(seed, 0xba115)}
}

// Size implements Engine.
func (e *BallsEngine) Size() int { return e.N }

// frameRNG derives the stream for one frame from the frame seed, so equal
// seeds replay identical frames (matching the deterministic tag behaviour).
// The stream is private to the frame: nothing reads it after the frame, so
// a frame may stop drawing once its observed prefix is settled.
func (e *BallsEngine) frameRNG(req FrameRequest) xrand.Rand {
	return xrand.MakeStream(e.rng.Uint64(), req.Seed)
}

// RunFrame implements Engine. Responses are sampled straight into the busy
// words of the observed prefix; no per-slot counts exist.
func (e *BallsEngine) RunFrame(req FrameRequest) BitVec {
	observe := req.validate()
	busy := e.buf.bits(req.W, observe)
	e.scatter(req, observe, frameOut{busy: busy})
	return busy
}

// RunFrameOccupancy implements OccupancyEngine, building the observed
// prefix's slot states in place.
func (e *BallsEngine) RunFrameOccupancy(req FrameRequest) Occupancy {
	observe := req.validate()
	states := e.buf.slotStates(req.W, observe)
	e.scatter(req, observe, frameOut{states: states})
	return states
}

// scatter samples the exact multinomial occupancy of a frame into out,
// which sees only the observed prefix, and meters the transmissions that
// land there. The response count is Binomial(n·k, p) and responses are
// distributed over the W slots per the slot distribution: one by one
// while there are at most 4W of them (throwBalls), past that by
// sequential binomial splitting (splitBalls), which samples the identical
// joint law in O(W) instead of O(balls). A one-slot frame takes every
// response in either regime, so it draws no slot at all: nothing reads
// the frame's stream after the frame, and one saturating add leaves the
// state the responses' adds one by one did.
//
// A uniform frame heard only on a prefix (BFCE's probe window and rough
// prefix) samples only that prefix: each response lands in it with
// probability observe/W, so scatter first draws how many do,
// Binomial(balls, observe/W), and then scatters just those as a frame of
// observe slots. Given their number, the responses in the prefix are
// uniform over it, so its occupancy and the metered transmissions keep
// the law of scattering every response over all W slots (DESIGN.md §7).
// A frame heard whole draws nothing extra. Geometric frames keep the
// whole-frame path even on a prefix: no protocol observes a prefix of
// one, and a truncated-geometric landing law would be code no traffic
// runs.
func (e *BallsEngine) scatter(req FrameRequest, observe int, out frameOut) {
	if req.Dist != Uniform && req.Dist != Geometric {
		panic("channel: unknown slot distribution")
	}
	rng := e.frameRNG(req)
	balls := rng.Binomial(e.N*req.K, req.P)
	if balls > 0 && observe < req.W && req.Dist == Uniform {
		balls = rng.Binomial(balls, float64(observe)/float64(req.W))
		req.W = observe
	}
	switch {
	case balls == 0: // a silent frame, or a silent prefix
	case req.W == 1:
		out.add(0, balls)
		e.transmissions += balls
	case balls <= 4*req.W:
		e.transmissions += throwBalls(&rng, balls, req, out)
	default:
		e.transmissions += splitBalls(&rng, balls, req, observe, out)
	}
}

// ballBatch is how many slots throwBalls draws at a time, into a buffer
// on its stack.
const ballBatch = 256

// throwBalls draws a slot for each of balls responses, a batch at a time
// (uniform slots with the generator held in registers), and returns how
// many of them landed in out's observed prefix.
func throwBalls(rng *xrand.Rand, balls int, req FrameRequest, out frameOut) (landed int) {
	var buf [ballBatch]uint64
	for balls > 0 {
		slots := buf[:min(balls, ballBatch)]
		if req.Dist == Uniform {
			rng.FillUint64n(slots, uint64(req.W))
		} else {
			for i := range slots {
				slots[i] = uint64(min(rng.GeometricHalf(), req.W-1))
			}
		}
		landed += out.addEach(slots)
		balls -= len(slots)
	}
	return landed
}

// splitBalls places balls responses slot by slot, bin_i ~
// Bin(remaining, q_i / tail_i), and returns how many it placed. It stops
// at the end of the observed prefix.
func splitBalls(rng *xrand.Rand, balls int, req FrameRequest, observe int, out frameOut) (landed int) {
	remaining := balls
	for i := 0; i < observe && remaining > 0; i++ {
		c := remaining // the last slot takes every ball still unplaced
		if i < req.W-1 {
			// Uniform: each unplaced ball picks slot i with probability
			// 1/(w-i). Geometric: slot i carries 2^{-(i+1)} of the mass,
			// so conditioned on not landing earlier a ball stops at i with
			// probability 1/2.
			q := 0.5
			if req.Dist == Uniform {
				q = 1 / float64(req.W-i)
			}
			c = rng.Binomial(remaining, q)
		}
		if c > 0 {
			out.add(i, c)
			landed += c
			remaining -= c
		}
	}
	return landed
}

// FirstResponse implements Engine. The first busy slot is the minimum of
// the responders' slots; for the uniform case it is sampled directly from
// the distribution of the minimum of `balls` uniform draws on [0, w).
func (e *BallsEngine) FirstResponse(req FrameRequest, maxScan int) int {
	req.Observe = 0
	req.validate()
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	rng := e.frameRNG(req)
	balls := rng.Binomial(e.N*req.K, req.P)
	if balls == 0 {
		return -1
	}
	var min int
	switch req.Dist {
	case Uniform:
		// P(min >= t) = (1 - t/w)^balls; invert the continuous analogue
		// and floor — exact for the continuous uniform, and within one
		// slot of the discrete law, which is what the frame granularity
		// observes anyway.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		frac := 1 - math.Pow(u, 1/float64(balls))
		min = int(frac * float64(req.W))
		if min >= req.W {
			min = req.W - 1
		}
	case Geometric:
		// Minimum of geometric draws: sample directly; balls is small for
		// geometric protocols (they use p to thin heavily).
		min = req.W - 1
		for i := 0; i < balls; i++ {
			if j := rng.GeometricHalf(); j < min {
				min = j
			}
		}
	default:
		panic("channel: unknown slot distribution")
	}
	if min >= maxScan {
		return -1
	}
	// At least one ball sits in the winning slot; the multiplicity beyond
	// one is O(balls/W) and not resolved by the closed-form sampler.
	e.transmissions++
	return min
}
