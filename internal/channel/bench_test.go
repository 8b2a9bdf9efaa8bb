package channel

import (
	"testing"

	"rfidest/internal/tags"
)

// BenchmarkTagEngineFrame measures frames over 100k materialized tags
// (the hot path of tag-level experiments): a full 8192-slot frame at
// p = 0.01, and the three frames of a BFCE session at n = 100,000 — the
// 32-slot probe window, the 1,024-slot rough prefix and the accurate
// frame. Every tag runs its k decisions whatever the observed prefix, so
// the legs differ by how many coins let a tag on to its slot hash.
func BenchmarkTagEngineFrame(b *testing.B) {
	pop := tags.Generate(100000, tags.T1, 1)
	for _, leg := range []struct {
		name string
		req  FrameRequest
	}{
		{"p=0.01", FrameRequest{W: 8192, K: 3, P: 0.01}},
		{"probe", FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 32}},
		{"rough", FrameRequest{W: 8192, K: 3, P: 8.0 / 1024, Observe: 1024}},
		{"accurate", FrameRequest{W: 8192, K: 3, P: 12.0 / 1024}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			e := NewTagEngine(pop, IdealRN)
			req := leg.req
			for i := 0; i < b.N; i++ {
				req.Seed = uint64(i)
				_ = e.RunFrame(req)
			}
		})
	}
}

// BenchmarkTagEnginePaperXORFrame measures the same frame under the
// paper's literal tag-side hash.
func BenchmarkTagEnginePaperXORFrame(b *testing.B) {
	pop := tags.Generate(100000, tags.T1, 2)
	e := NewTagEngine(pop, PaperXOR)
	req := FrameRequest{W: 8192, K: 3, P: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}

// BenchmarkBallsEngineFrame measures the synthetic engine (the fast path
// large sweeps rely on): the full p = 0.01 frame at n = 100,000; the
// three frames of a BFCE session at n = 10⁶ — the 32-slot probe window and
// the 1,024-slot rough prefix at p = 8/1024 (of about 23,000 responses,
// only the ~90 and ~2,900 that land in the heard prefix are thrown) and
// the accurate frame at p_o = 2/1024 (about 5,900 responses, all heard);
// and UPE's slot-state measurement frame at n = 10⁶ (1,024 slots at
// p = 1/256, about 3,900 responses).
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

// BenchmarkBallsEngineFullPersistenceGeometric measures the sequential
// binomial-splitting path (5M responses into 32 slots).
func BenchmarkBallsEngineFullPersistenceGeometric(b *testing.B) {
	e := NewBallsEngine(5000000, 5)
	req := FrameRequest{W: 32, K: 1, P: 1, Dist: Geometric}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}
