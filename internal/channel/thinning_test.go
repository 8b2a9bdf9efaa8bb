package channel

import (
	"math/rand"
	"testing"

	"rfidest/internal/stats"
)

// BallsEngine thins a uniform frame heard on a prefix to the responses
// that land there before it places any (scatter). That changes which
// draws of the frame's stream place the prefix's responses, not their
// law. These tests hold the engine to the law it sampled before, every
// response placed over the whole frame (wholeFrame): in distribution on
// the prefixes it thins, and draw for draw on every frame it leaves
// whole.

// thinnedShapes are prefixes scatter thins: BFCE's probe window and rough
// prefix at n = 10⁶ and p = 8/1024 (about 23,000 responses for 32 and
// 1,024 heard slots), a prefix whose thinned load still takes the
// splitting regime, and the rough prefix at n = 50,000, where about 136 of
// its 1,024 slots are busy and the busy count spreads widest.
var thinnedShapes = []struct {
	name string
	n    int
	req  FrameRequest
}{
	{"probe", 1000000, FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 32}},
	{"rough", 1000000, FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 1024}},
	{"split", 3000, FrameRequest{W: 1024, K: 2, P: 0.9, Observe: 100}},
	{"rough-n50000", 50000, FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 1024}},
}

// prefixSample collects, frame by frame, what an estimator reads off a
// heard prefix: busy slots, collision slots (slot-state frames only) and
// the transmissions metered there.
type prefixSample struct{ busy, collisions, landed []float64 }

func (s *prefixSample) add(busy, collisions, landed int) {
	s.busy = append(s.busy, float64(busy))
	s.collisions = append(s.collisions, float64(collisions))
	s.landed = append(s.landed, float64(landed))
}

// addCounts adds a prefix given as per-slot counts.
func (s *prefixSample) addCounts(counts []int) {
	busy, collisions, landed := 0, 0, 0
	for _, c := range counts {
		if c > 0 {
			busy++
		}
		if c > 1 {
			collisions++
		}
		landed += c
	}
	s.add(busy, collisions, landed)
}

// TestPrefixThinningKeepsLaw compares, for each thinned shape, 400 frames
// of the engine with 400 frames of the whole-frame law on another engine
// seed: busy count and metered transmissions of bit-slot frames, and
// also the collision count of slot-state frames, each by a two-sample
// Kolmogorov–Smirnov test at α = 0.001.
func TestPrefixThinningKeepsLaw(t *testing.T) {
	const frames = 400
	for _, shape := range thinnedShapes {
		t.Run(shape.name, func(t *testing.T) {
			engine, whole := NewBallsEngine(shape.n, 41), NewBallsEngine(shape.n, 42)
			var gotBits, gotStates, want prefixSample
			req := shape.req
			for i := 0; i < frames; i++ {
				req.Seed = uint64(i)
				before := engine.TagTransmissions()
				busy := engine.RunFrame(req).CountBusy()
				gotBits.add(busy, 0, engine.TagTransmissions()-before)
				before = engine.TagTransmissions()
				occ := engine.RunFrameOccupancy(req)
				gotStates.add(len(occ)-occ.Count(Empty), occ.Count(Collision), engine.TagTransmissions()-before)
				want.addCounts(whole.refCounts(req, wholeFrame))
			}
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"busy slots", gotBits.busy, want.busy},
				{"transmissions", gotBits.landed, want.landed},
				{"slot-state busy slots", gotStates.busy, want.busy},
				{"slot-state collisions", gotStates.collisions, want.collisions},
				{"slot-state transmissions", gotStates.landed, want.landed},
			} {
				if !stats.SameDistribution(c.got, c.want, 0.001) {
					t.Errorf("%s: %s differ from the whole-frame law (KS=%.3f)",
						shape.name, c.what, stats.KSStatistic(c.got, c.want))
				}
			}
		})
	}
}

// unthinnedCases are frames scatter does not thin: uniform frames heard
// whole (Observe 0 or W), one-slot frames, and geometric frames with and
// without a prefix, in both scatter regimes for the populations of
// TestUnthinnedFramesMatchWholeFrame.
var unthinnedCases = []FrameRequest{
	{W: 8192, K: 3, P: 0.1},                                // BFCE's accurate frame
	{W: 8192, K: 3, P: 2.0 / 1024},                         // the accurate frame at p_o = 2/1024
	{W: 3000, K: 4, P: 0.7, Observe: 3000},                 // a prefix that is the whole frame
	{W: 1024, K: 1, P: 1.0 / 256},                          // UPE's measurement frame
	{W: 1, K: 1, P: 0.3},                                   // ZOE's single slot
	{W: 1, K: 1, P: 1.59 / 4000},                           // ZOE's load at n = 4,000
	{W: 32, K: 1, P: 1, Dist: Geometric},                   // LOF's lottery frame
	{W: 32, K: 1, P: 1, Dist: Geometric, Observe: 9},       // a geometric prefix
	{W: 4096, K: 1, P: 0.05, Dist: Geometric, Observe: 40}, // a long geometric prefix
}

// TestUnthinnedFramesMatchWholeFrame pins every frame scatter leaves whole
// to the whole-frame law exactly, draw for draw: busy bits, slot states
// and transmissions through twin engines in lockstep.
func TestUnthinnedFramesMatchWholeFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(2310))
	for _, n := range []int{0, 1, 4000, 300000, 1000000} {
		engine, whole := NewBallsEngine(n, 77), NewBallsEngine(n, 77)
		reqs := append([]FrameRequest(nil), unthinnedCases...)
		for len(reqs) < len(unthinnedCases)+30 {
			req := randomReq(rng)
			if req.Dist == Uniform && req.Observe > 0 {
				req.Observe = req.W
			}
			reqs = append(reqs, req)
		}
		for trial, req := range reqs {
			req.Seed = rng.Uint64()
			assertMatchesRef(t, trial, engine.RunFrame(req), busyOf(whole.refCounts(req, wholeFrame)))
			if engine.TagTransmissions() != whole.TagTransmissions() {
				t.Fatalf("n=%d trial %d %+v: metered %d transmissions, whole frame %d",
					n, trial, req, engine.TagTransmissions(), whole.TagTransmissions())
			}
			assertOccupancyMatchesRef(t, trial, engine.RunFrameOccupancy(req),
				statesOf(whole.refCounts(req, wholeFrame)), engine, whole)
		}
	}
}
