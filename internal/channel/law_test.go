package channel

import (
	"testing"

	"rfidest/internal/stats"
)

// BallsEngine does not always place every response of a frame one by one
// or by exact splitting (scatter): it thins a uniform frame heard on a
// prefix to the responses that land there, writes saturated slots without
// drawing them, and throws only the responses that pass a lottery frame's
// head. Each of these changes which draws of the frame's stream place the
// frame, not its law, or moves the law by at most 2^-64 in total
// variation (TestSaturationBound). These tests hold the engine to the
// exact law, every response placed over the whole frame (wholeFrame), in
// distribution: frame by frame, what an estimator reads off the frame,
// compared by two-sample Kolmogorov–Smirnov tests at α = 0.001 over 400
// frames of the engine and 400 of the exact law on another engine seed.

// lawShape is a population and a frame the law tests sample.
type lawShape struct {
	name string
	n    int
	req  FrameRequest
}

// frameSample collects, frame by frame, what an estimator reads off a
// heard frame: busy slots, collision slots (slot-state frames only), the
// first idle slot (a busy frame reports its length) and the
// transmissions metered there.
type frameSample struct{ busy, collisions, firstIdle, landed []float64 }

func (s *frameSample) add(busy, collisions, firstIdle, landed int) {
	s.busy = append(s.busy, float64(busy))
	s.collisions = append(s.collisions, float64(collisions))
	s.firstIdle = append(s.firstIdle, float64(firstIdle))
	s.landed = append(s.landed, float64(landed))
}

// addCounts adds a frame given as per-slot counts.
func (s *frameSample) addCounts(counts []int) {
	busy, collisions, landed := 0, 0, 0
	firstIdle := len(counts)
	for i, c := range counts {
		if c > 0 {
			busy++
		} else if firstIdle == len(counts) {
			firstIdle = i
		}
		if c > 1 {
			collisions++
		}
		landed += c
	}
	s.add(busy, collisions, firstIdle, landed)
}

// sampleLaw runs frames frames of shape through the engine, as busy bits
// and as slot states, and through the exact law.
func sampleLaw(shape lawShape, frames int) (gotBits, gotStates, want frameSample) {
	engine, whole := NewBallsEngine(shape.n, 41), NewBallsEngine(shape.n, 42)
	req := shape.req
	for i := 0; i < frames; i++ {
		req.Seed = uint64(i)
		before := engine.TagTransmissions()
		vec := engine.RunFrame(req)
		gotBits.add(vec.CountBusy(), 0, vec.FirstIdle(), engine.TagTransmissions()-before)
		before = engine.TagTransmissions()
		occ := engine.RunFrameOccupancy(req)
		firstIdle := len(occ)
		for j, st := range occ {
			if st == Empty {
				firstIdle = j
				break
			}
		}
		gotStates.add(len(occ)-occ.Count(Empty), occ.Count(Collision), firstIdle, engine.TagTransmissions()-before)
		want.addCounts(whole.refCounts(req, wholeFrame))
	}
	return gotBits, gotStates, want
}

// assertSameLaw KS-tests every statistic of both frame kinds against the
// exact law.
func assertSameLaw(t *testing.T, shape lawShape, gotBits, gotStates, want frameSample) {
	t.Helper()
	for _, c := range []struct {
		what      string
		got, want []float64
	}{
		{"busy slots", gotBits.busy, want.busy},
		{"first idle slots", gotBits.firstIdle, want.firstIdle},
		{"transmissions", gotBits.landed, want.landed},
		{"slot-state busy slots", gotStates.busy, want.busy},
		{"slot-state collisions", gotStates.collisions, want.collisions},
		{"slot-state first empty slots", gotStates.firstIdle, want.firstIdle},
		{"slot-state transmissions", gotStates.landed, want.landed},
	} {
		if !stats.SameDistribution(c.got, c.want, 0.001) {
			t.Errorf("%s: %s differ from the exact law (KS=%.3f)",
				shape.name, c.what, stats.KSStatistic(c.got, c.want))
		}
	}
}

// thinnedShapes are prefixes scatter thins: BFCE's probe window and rough
// prefix at n = 10⁶ and p = 8/1024 (about 23,000 responses for 32 and
// 1,024 heard slots), a prefix whose thinned load (about 35 per slot)
// still takes the splitting regime, the rough prefix at n = 50,000, where
// about 136 of its 1,024 slots are busy and the busy count spreads
// widest, and a prefix thinned to about 98 responses per slot, which is
// written saturated.
var thinnedShapes = []lawShape{
	{"probe", 1000000, FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 32}},
	{"rough", 1000000, FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 1024}},
	{"split", 10000, FrameRequest{W: 1024, K: 4, P: 0.9, Observe: 100}},
	{"rough-n50000", 50000, FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 1024}},
	{"saturated", 200000, FrameRequest{W: 8192, K: 4, P: 1, Observe: 100}},
}

// TestPrefixThinningKeepsLaw holds each thinned prefix to the exact law.
func TestPrefixThinningKeepsLaw(t *testing.T) {
	for _, shape := range thinnedShapes {
		t.Run(shape.name, func(t *testing.T) {
			gotBits, gotStates, want := sampleLaw(shape, 400)
			assertSameLaw(t, shape, gotBits, gotStates, want)
		})
	}
}

// regimeShapes are whole frames that lottery heads, saturation and the
// throw/split crossover place: LOF's and PET's lottery frame at n = 5·10⁴
// and 10⁶ (heads of 9 and 14 slots); uniform 1,024-slot frames at about
// 8, 16 and 24 responses per slot, thrown one by one where they used to
// be split; and UPE's calibration frame at about 244 responses per slot,
// written saturated.
var regimeShapes = []lawShape{
	{"lottery-n50000", 50000, FrameRequest{W: 32, K: 1, P: 1, Dist: Geometric}},
	{"lottery-n1000000", 1000000, FrameRequest{W: 32, K: 1, P: 1, Dist: Geometric}},
	{"load-8", 16384, FrameRequest{W: 1024, K: 1, P: 0.5}},
	{"load-16", 32768, FrameRequest{W: 1024, K: 1, P: 0.5}},
	{"load-24", 49152, FrameRequest{W: 1024, K: 1, P: 0.5}},
	{"upe-saturated", 1000000, FrameRequest{W: 1024, K: 1, P: 0.25}},
}

// TestScatterRegimesKeepLaw holds each regime shape to the exact law.
func TestScatterRegimesKeepLaw(t *testing.T) {
	for _, shape := range regimeShapes {
		t.Run(shape.name, func(t *testing.T) {
			gotBits, gotStates, want := sampleLaw(shape, 400)
			assertSameLaw(t, shape, gotBits, gotStates, want)
		})
	}
}
