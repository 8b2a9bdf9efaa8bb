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

// BenchmarkBallsEngineFrame measures the synthetic engine on the same
// frame (the fast path large sweeps rely on).
func BenchmarkBallsEngineFrame(b *testing.B) {
	e := NewBallsEngine(100000, 3)
	req := FrameRequest{W: 8192, K: 3, P: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
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
