package channel

import (
	"math/rand"
	"testing"

	"rfidest/internal/tags"
)

// Frame aggregate-query benchmarks: the word-packed BitVec against the
// retained []bool reference path (reference_test.go) on the paper's w = 8192
// geometry. CI smoke runs these via `go test -bench=Frame -benchtime=1x`;
// results/BENCH_frame.json records a full before/after run.

const benchFrameW = 8192

// benchFrame builds one ~30%-busy 8192-slot frame in both representations.
func benchFrame() (BitVec, refVec) {
	rng := rand.New(rand.NewSource(4242))
	bools := make([]bool, benchFrameW)
	for i := range bools {
		bools[i] = rng.Float64() < 0.3
	}
	return FromBools(bools), refVec(bools)
}

// benchSparseFrame builds a frame whose only busy slot sits near the end,
// so FirstBusy must scan almost the whole vector.
func benchSparseFrame() (BitVec, refVec) {
	bools := make([]bool, benchFrameW)
	bools[benchFrameW-100] = true
	return FromBools(bools), refVec(bools)
}

func BenchmarkFrameCountBusyPacked(b *testing.B) {
	vec, _ := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.CountBusy()
	}
}

func BenchmarkFrameCountBusyBoolRef(b *testing.B) {
	_, ref := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ref.countBusy()
	}
}

func BenchmarkFrameRhoIdlePacked(b *testing.B) {
	vec, _ := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.RhoIdle()
	}
}

func BenchmarkFrameRhoIdleBoolRef(b *testing.B) {
	_, ref := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ref.rhoIdle()
	}
}

func BenchmarkFrameRunsPacked(b *testing.B) {
	vec, _ := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.Runs()
	}
}

func BenchmarkFrameRunsBoolRef(b *testing.B) {
	_, ref := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ref.runs()
	}
}

func BenchmarkFrameScatterTagPacked(b *testing.B) {
	pop := tags.Generate(100000, tags.T1, 1)
	e := NewTagEngine(pop, IdealRN)
	req := FrameRequest{W: benchFrameW, K: 3, P: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}

func BenchmarkFrameScatterTagBoolRef(b *testing.B) {
	pop := tags.Generate(100000, tags.T1, 1)
	e := NewTagEngine(pop, IdealRN)
	req := FrameRequest{W: benchFrameW, K: 3, P: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.refRunFrame(req)
	}
}

func BenchmarkFrameScatterBallsPacked(b *testing.B) {
	e := NewBallsEngine(100000, 3)
	req := FrameRequest{W: benchFrameW, K: 3, P: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}

func BenchmarkFrameScatterBallsBoolRef(b *testing.B) {
	e := NewBallsEngine(100000, 3)
	req := FrameRequest{W: benchFrameW, K: 3, P: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.refRunFrame(req)
	}
}

func BenchmarkFrameFirstBusyPacked(b *testing.B) {
	vec, _ := benchSparseFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.FirstBusy()
	}
}

func BenchmarkFrameFirstBusyBoolRef(b *testing.B) {
	_, ref := benchSparseFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ref.firstBusy()
	}
}
