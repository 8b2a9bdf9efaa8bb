package hash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniform64SeedsDiffer(t *testing.T) {
	if Uniform64(123, 1) == Uniform64(123, 2) {
		t.Fatal("different seeds produced the same hash")
	}
	if Uniform64(123, 1) != Uniform64(123, 1) {
		t.Fatal("hash is not deterministic")
	}
}

// TestKeyOfSplitsUniform64: premixing a key once and finishing it under
// each seed is Uniform64, and the slot helpers built on it agree with the
// per-call ones.
func TestKeyOfSplitsUniform64(t *testing.T) {
	f := func(x, seed uint64, wRaw uint16, maxRaw uint8) bool {
		w, max := 1+int(wRaw), int(maxRaw)
		k := KeyOf(x)
		return k.Uniform64(seed) == Uniform64(x, seed) &&
			Reduce(k.Uniform64(seed), w) == UniformSlot(x, seed, w) &&
			k.GeometricSlot(seed, max) == GeometricSlot(x, seed, max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestFloatThresholdMatchesUniformFloat: comparing the hash's top 53 bits
// with FloatThreshold(p) decides exactly as UniformFloat < p, at the
// edges of [0, 1], at NaN, and where p·2^53 is or is not an integer — the
// hashes tried include those just below, at and above the threshold.
func TestFloatThresholdMatchesUniformFloat(t *testing.T) {
	ps := []float64{0, math.Copysign(0, -1), 5e-324, 1.0 / (1 << 53), 3.0 / (1 << 54), 0.4 / 1024, 8.0 / 1024,
		0.1, 0.5, math.Nextafter(1, 0), 1, math.NaN()}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		th := FloatThreshold(p)
		hs := []uint64{0, ^uint64(0)}
		for _, u := range []uint64{th - 1, th, th + 1} {
			if u < 1<<53 {
				hs = append(hs, u<<11, u<<11|0x7ff)
			}
		}
		for _, h := range hs {
			want := float64(h>>11)/(1<<53) < p
			if got := h>>11 < th; got != want {
				t.Fatalf("p=%v h=%#x: threshold %d decides %v, UniformFloat < p is %v", p, h, th, got, want)
			}
		}
	}
}

func TestUniformSlotRange(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 1024, 8192, 1000003} {
		for x := uint64(0); x < 1000; x++ {
			s := UniformSlot(x, 99, w)
			if s < 0 || s >= w {
				t.Fatalf("UniformSlot(%d, 99, %d) = %d out of range", x, w, s)
			}
		}
	}
}

func TestUniformSlotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UniformSlot(_,_,0) did not panic")
		}
	}()
	UniformSlot(1, 1, 0)
}

func TestUniformSlotUniformity(t *testing.T) {
	const w, trials = 64, 640000
	counts := make([]int, w)
	for x := 0; x < trials; x++ {
		counts[UniformSlot(uint64(x), 7, w)]++
	}
	want := float64(trials) / w
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("slot %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestUniformSlotUniformityNonPow2(t *testing.T) {
	const w, trials = 10, 500000
	counts := make([]int, w)
	for x := 0; x < trials; x++ {
		counts[UniformSlot(uint64(x), 11, w)]++
	}
	want := float64(trials) / w
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("slot %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestUniformFloatRange(t *testing.T) {
	for x := uint64(0); x < 100000; x++ {
		f := UniformFloat(x, 3)
		if f < 0 || f >= 1 {
			t.Fatalf("UniformFloat out of range: %v", f)
		}
	}
}

func TestUniformFloatMean(t *testing.T) {
	const trials = 200000
	sum := 0.0
	for x := 0; x < trials; x++ {
		sum += UniformFloat(uint64(x), 5)
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("UniformFloat mean = %v", mean)
	}
}

func TestGeometricSlotDistribution(t *testing.T) {
	const trials = 400000
	counts := make([]int, 33)
	for x := 0; x < trials; x++ {
		j := GeometricSlot(uint64(x), 13, 32)
		if j < 0 || j > 32 {
			t.Fatalf("GeometricSlot out of range: %d", j)
		}
		counts[j]++
	}
	for j := 0; j < 10; j++ {
		want := float64(trials) * math.Pow(0.5, float64(j+1))
		if math.Abs(float64(counts[j])-want) > 6*math.Sqrt(want) {
			t.Fatalf("GeometricSlot P(%d): got %d, want ~%v", j, counts[j], want)
		}
	}
}

func TestGeometricSlotCap(t *testing.T) {
	for x := uint64(0); x < 100000; x++ {
		if j := GeometricSlot(x, 1, 4); j > 4 {
			t.Fatalf("GeometricSlot exceeded cap: %d", j)
		}
	}
}

func TestPaperTagHashRange(t *testing.T) {
	f := func(rn, rs uint32) bool {
		h := PaperTagHashW(rn, rs, 8192)
		return h >= 0 && h < 8192
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperTagHashMatchesW8192(t *testing.T) {
	// At the paper's w = 8192 the hash is §IV-E.2's bitget(RN ⊕ RS, 13:1).
	f := func(rn, rs uint32) bool {
		return PaperTagHashW(rn, rs, 8192) == int((rn^rs)&0x1fff)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperTagHashWPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PaperTagHashW(.., 100) did not panic")
		}
	}()
	PaperTagHashW(1, 1, 100)
}

func TestPaperTagHashXORProperty(t *testing.T) {
	// H(rn, rs) depends only on rn ⊕ rs: shifting both by the same mask
	// must not change the hash.
	f := func(rn, rs, m uint32) bool {
		return PaperTagHashW(rn^m, rs^m, 8192) == PaperTagHashW(rn, rs, 8192)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperTagHashUniformOverRandomRN(t *testing.T) {
	// With uniformly random RN (as prestored on tags), the hash must be
	// uniform over [0, 8192) regardless of the seed.
	const trials = 819200
	counts := make([]int, 8192)
	rn := uint32(0x12345678)
	for i := 0; i < trials; i++ {
		rn = rn*1664525 + 1013904223 // LCG as a stand-in RN sequence
		counts[PaperTagHashW(rn, 0xdeadbeef, 8192)]++
	}
	want := float64(trials) / 8192
	bad := 0
	for _, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			bad++
		}
	}
	if bad > 8192/100 {
		t.Fatalf("%d of 8192 buckets deviate by >5 sigma", bad)
	}
}

func TestPaperPersistenceProbability(t *testing.T) {
	// Over uniform RN the corrected rule fires with probability pn/1024.
	const trials = 400000
	for _, pn := range []int{1, 2, 8, 512, 1024} {
		hits := 0
		rn := uint32(0xace1)
		for i := 0; i < trials; i++ {
			rn = rn*1664525 + 1013904223
			if PaperPersistence(rn, uint(i), pn) {
				hits++
			}
		}
		got := float64(hits) / trials
		want := float64(pn) / 1024
		if want > 1 {
			want = 1
		}
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("PaperPersistence(pn=%d) rate %v, want %v", pn, got, want)
		}
	}
}

func BenchmarkUniformSlot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = UniformSlot(uint64(i), 7, 8192)
	}
}

func BenchmarkPaperTagHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = PaperTagHashW(uint32(i), 0x5555aaaa, 8192)
	}
}
