package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64AvalancheNonzero(t *testing.T) {
	// Flipping any single input bit must change the output.
	x := uint64(0xdeadbeefcafef00d)
	base := Mix64(x)
	for b := 0; b < 64; b++ {
		if Mix64(x^(1<<uint(b))) == base {
			t.Fatalf("Mix64 collision when flipping bit %d", b)
		}
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 is not deterministic")
	}
	if Mix64(42) == Mix64(43) {
		t.Fatal("Mix64(42) == Mix64(43)")
	}
}

func TestCombineOrderSensitive(t *testing.T) {
	if Combine(1, 2) == Combine(2, 1) {
		t.Fatal("Combine must be order sensitive")
	}
	if Combine(1) == Combine(1, 0) {
		t.Fatal("Combine must be length sensitive")
	}
}

func TestSplitMix64Sequence(t *testing.T) {
	// Reference values for seed 0 from the public-domain reference
	// implementation by Sebastiano Vigna.
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	s := NewSplitMix64(0)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("SplitMix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a := NewStream(7, 1, 2, 3)
	b := NewStream(7, 1, 2, 4)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("sibling streams collided on %d of 64 draws", same)
	}
}

func TestNewStreamReproducible(t *testing.T) {
	a := NewStream(7, 9)
	b := NewStream(7, 9)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("stream not reproducible at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(2)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	r := New(3)
	const n, trials = 7, 70000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nBound(t *testing.T) {
	r := New(4)
	for _, n := range []uint64{1, 2, 3, 1 << 40, math.MaxUint64} {
		for i := 0; i < 100; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

// TestUint64nPinned pins a stretch of Uint64n draws, taken before the
// 128-bit product moved to math/bits, across bounds that never reject
// (1, 3, 10, 8192) and bounds that reject about half the draws
// (2^63+1, 2^64-1). Every simulated frame slot goes through this path,
// so a drift here would move every estimate.
func TestUint64nPinned(t *testing.T) {
	r := NewStream(7, 0x5eed)
	want := []uint64{
		0x0, 0x0, 0x0, 0x0, 0x1, 0x1, 0x3, 0x3, 0x0, 0xc8c, 0x6a3, 0x601,
		0x7b3390f34c56d809, 0x41d9e5a822def2b4, 0x4d66221ac6d1f941,
		0xeb9a1a331181a2f0, 0xdcd96c57ccc512e, 0xf0081e1c44057c3,
	}
	i := 0
	for _, n := range []uint64{1, 3, 10, 8192, 1<<63 + 1, math.MaxUint64} {
		for j := 0; j < 3; j++ {
			if got := r.Uint64n(n); got != want[i] {
				t.Fatalf("draw %d: Uint64n(%#x) = %#x, want %#x", i, n, got, want[i])
			}
			i++
		}
	}
}

// TestFillUint64nMatchesUint64n checks the batched bounded draw against
// Uint64n draw for draw, and the generator state it leaves, for bounds
// that never reject (1, powers of two), bounds that rarely do (3, 8191)
// and 2^63+1, which rejects about half the draws.
func TestFillUint64nMatchesUint64n(t *testing.T) {
	bounds := []uint64{1, 3, 8191, 1 << 63, 1<<63 + 1, math.MaxUint64}
	for e := 1; e < 64; e += 5 {
		bounds = append(bounds, 1<<e)
	}
	var dst [300]uint64
	for bi, n := range bounds {
		for _, size := range []int{0, 1, 7, 256, 300} {
			a, b := NewStream(99, uint64(bi), uint64(size)), NewStream(99, uint64(bi), uint64(size))
			batch := dst[:size]
			a.FillUint64n(batch, n)
			for i, got := range batch {
				if want := b.Uint64n(n); got != want {
					t.Fatalf("n=%#x size %d: draw %d = %#x, Uint64n %#x", n, size, i, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%#x size %d: generator state differs after the run", n, size)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FillUint64n(_, 0) did not panic")
		}
	}()
	New(1).FillUint64n(dst[:1], 0)
}

func TestMakeStreamMatchesNewStream(t *testing.T) {
	f := func(seed, word uint64) bool {
		a, b := MakeStream(seed, word), NewStream(seed, word)
		for i := 0; i < 4; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		r := MakeStream(3, 4)
		r.Uint64()
	}); got != 0 {
		t.Fatalf("MakeStream allocated %v times", got)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(6)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli rate = %v, want ~%v", rate, p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(7)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(8)
	s := []int{1, 2, 3, 4, 5}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("Shuffle lost elements: %v", s)
	}
}
