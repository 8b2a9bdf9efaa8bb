package channel

import (
	"math/rand"
	"testing"
)

// Frame aggregate-query benchmarks on the paper's w = 8192 geometry: the
// word-packed BitVec's popcount and trailing-zero loops. CI smoke runs these
// with the engine frame benchmarks via `go test -bench=Frame -benchtime=1x`.

const benchFrameW = 8192

// benchFrame builds one ~30%-busy 8192-slot frame.
func benchFrame() BitVec {
	rng := rand.New(rand.NewSource(4242))
	bools := make([]bool, benchFrameW)
	for i := range bools {
		bools[i] = rng.Float64() < 0.3
	}
	return FromBools(bools)
}

// benchSparseFrame builds a frame whose only busy slot sits near the end,
// so FirstBusy must scan almost the whole vector.
func benchSparseFrame() BitVec {
	bools := make([]bool, benchFrameW)
	bools[benchFrameW-100] = true
	return FromBools(bools)
}

func BenchmarkFrameCountBusyPacked(b *testing.B) {
	vec := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.CountBusy()
	}
}

func BenchmarkFrameRhoIdlePacked(b *testing.B) {
	vec := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.RhoIdle()
	}
}

func BenchmarkFrameFirstBusyPacked(b *testing.B) {
	vec := benchSparseFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.FirstBusy()
	}
}
