package channel

import (
	"fmt"
	"testing"

	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// tagFrameLegs are the frames the tag engine benchmarks time over 100k
// materialized tags (the hot path of tag-level experiments): a full
// 8192-slot frame at p = 0.01, and the three frames of a BFCE session at
// n = 100,000 — the 32-slot probe window, the 1,024-slot rough prefix and
// the accurate frame.
var tagFrameLegs = []struct {
	name string
	req  FrameRequest
}{
	{"p=0.01", FrameRequest{W: 8192, K: 3, P: 0.01}},
	{"probe", FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 32}},
	{"rough", FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 1024}},
	{"accurate", FrameRequest{W: 8192, K: 3, P: 12.0 / 1024}},
}

// benchTagFrames times tagFrameLegs on an engine over pop under mode,
// after one warm frame, so the timed frames exclude what a session's
// first frame builds once (the frame buffer; paper-hash tags' RN planes).
func benchTagFrames(b *testing.B, pop *tags.Population, mode HashMode) {
	for _, leg := range tagFrameLegs {
		b.Run(leg.name, func(b *testing.B) {
			e := NewTagEngine(pop, mode)
			req := leg.req
			_ = e.RunFrame(req)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Seed = uint64(i)
				_ = e.RunFrame(req)
			}
		})
	}
}

// BenchmarkTagEngineFrame measures the ideal-hash tag engine. Every tag
// runs its k decisions whatever the observed prefix, so the legs differ by
// how many coins let a tag on to its slot hash.
func BenchmarkTagEngineFrame(b *testing.B) {
	benchTagFrames(b, tags.Generate(100000, tags.T1, 1), IdealRN)
}

// BenchmarkTagEnginePaperXORFrame measures the same frames under the
// paper's literal tag-side hash, where each hash decides 64 tags' coins
// per comparison and only the tags it lets through compute a slot.
func BenchmarkTagEnginePaperXORFrame(b *testing.B) {
	benchTagFrames(b, tags.Generate(100000, tags.T1, 2), PaperXOR)
}

// BenchmarkBallsEngineFrame measures the synthetic engine (the fast path
// large sweeps rely on): the full p = 0.01 frame at n = 100,000; the
// three frames of a BFCE session at n = 10⁶ — the 32-slot probe window and
// the 1,024-slot rough prefix at p = 8/1024 (of about 23,000 responses,
// only the ~90 and ~2,900 that land in the heard prefix are thrown) and
// the accurate frame at p_o = 2/1024 (about 5,900 responses, all heard);
// UPE's slot-state measurement frame at n = 10⁶ (1,024 slots at
// p = 1/256, about 3,900 responses); LOF's and PET's lottery frame at
// n = 10⁶ (32 geometric slots under full persistence: a saturated head of
// 14 slots, and about 61 responses thrown past it); a 1,024-slot
// slot-state frame at 256 responses per slot, written saturated; and a
// 1,024-slot frame at 8 responses per slot, thrown one by one.
func BenchmarkBallsEngineFrame(b *testing.B) {
	for _, leg := range []struct {
		name   string
		n      int
		req    FrameRequest
		states bool
	}{
		{"p=0.01", 100000, FrameRequest{W: 8192, K: 3, P: 0.01}, false},
		{"probe", 1000000, FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 32}, false},
		{"rough", 1000000, FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 1024}, false},
		{"accurate", 1000000, FrameRequest{W: 8192, K: 3, P: 2.0 / 1024}, false},
		{"upe-states", 1000000, FrameRequest{W: 1024, K: 1, P: 1.0 / 256}, true},
		{"lottery", 1000000, FrameRequest{W: 32, K: 1, P: 1, Dist: Geometric}, false},
		{"saturated-states", 262144, FrameRequest{W: 1024, K: 1, P: 1}, true},
		{"load-8", 8192, FrameRequest{W: 1024, K: 1, P: 1}, false},
	} {
		b.Run(leg.name, func(b *testing.B) {
			e := NewBallsEngine(leg.n, 3)
			req := leg.req
			for i := 0; i < b.N; i++ {
				req.Seed = uint64(i)
				if leg.states {
					_ = e.RunFrameOccupancy(req)
				} else {
					_ = e.RunFrame(req)
				}
			}
		})
	}
}

// BenchmarkBallsEngineZOESlot measures one ZOE-style single-bit frame.
func BenchmarkBallsEngineZOESlot(b *testing.B) {
	e := NewBallsEngine(500000, 4)
	req := FrameRequest{W: 1, K: 1, P: 1.594 / 500000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}

// BenchmarkBallsEngineFullPersistenceGeometric measures a lottery frame
// of 5M responses into 32 slots: a saturated head of 16 slots, one
// binomial for the responses that pass it, and the ~76 of them thrown.
func BenchmarkBallsEngineFullPersistenceGeometric(b *testing.B) {
	e := NewBallsEngine(5000000, 5)
	req := FrameRequest{W: 32, K: 1, P: 1, Dist: Geometric}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}

// BenchmarkScatterCrossover prices BallsEngine's two exact regimes on a
// uniform 1,024-slot frame at loads around splitLoad: throwing every
// response (throwBalls) against splitting the frame one binomial per
// slot (splitBalls), in busy bits and slot states. Where split drops
// below throw is the crossover.
func BenchmarkScatterCrossover(b *testing.B) {
	const w = 1024
	var buf frameBuf
	for _, load := range []int{8, 16, 24, 32, 40, 48} {
		for _, states := range []bool{false, true} {
			for _, split := range []bool{false, true} {
				regime, kind := "throw", ""
				if split {
					regime = "split"
				}
				if states {
					kind = "-states"
				}
				b.Run(fmt.Sprintf("load=%d/%s%s", load, regime, kind), func(b *testing.B) {
					req := FrameRequest{W: w, K: 1, P: 1}
					for i := 0; i < b.N; i++ {
						rng := xrand.MakeStream(uint64(i), 0xc0)
						out := frameOut{busy: buf.bits(w, w)}
						if states {
							out = frameOut{states: buf.slotStates(w, w)}
						}
						if split {
							splitBalls(&rng, load*w, req, w, out)
						} else {
							throwBalls(&rng, load*w, req, out)
						}
					}
				})
			}
		}
	}
}
