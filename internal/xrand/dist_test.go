package xrand

import (
	"math"
	"testing"
)

func TestNormMoments(t *testing.T) {
	r := New(11)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

func TestNormMeanStd(t *testing.T) {
	r := New(12)
	const trials = 100000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.NormMeanStd(10, 2)
	}
	if mean := sum / trials; math.Abs(mean-10) > 0.05 {
		t.Fatalf("NormMeanStd mean = %v, want ~10", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	const p, trials = 0.2, 100000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / trials
	want := (1 - p) / p // E[failures before first success]
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric mean = %v, want ~%v", mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(14)
	for i := 0; i < 100; i++ {
		if r.Geometric(1) != 0 {
			t.Fatal("Geometric(1) != 0")
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestGeometricHalfDistribution(t *testing.T) {
	r := New(15)
	const trials = 200000
	counts := make([]int, 20)
	for i := 0; i < trials; i++ {
		j := r.GeometricHalf()
		if j < len(counts) {
			counts[j]++
		}
	}
	for j := 0; j < 8; j++ {
		want := float64(trials) * math.Pow(0.5, float64(j+1))
		got := float64(counts[j])
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Fatalf("GeometricHalf P(%d): got %v, want ~%v", j, got, want)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(16)
	if r.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0, p) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Fatal("Binomial(n, 0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Fatal("Binomial(n, 1) != n")
	}
}

func TestBinomialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial with p>1 did not panic")
		}
	}()
	New(1).Binomial(10, 1.5)
}

// testBinomialMoments checks sample mean and variance of Binomial(n, p)
// against np and np(1-p) within 6 standard errors.
func testBinomialMoments(t *testing.T, seed uint64, n int, p float64) {
	t.Helper()
	r := New(seed)
	const trials = 50000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := float64(r.Binomial(n, p))
		if v < 0 || v > float64(n) {
			t.Fatalf("Binomial(%d,%v) out of range: %v", n, p, v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	wantMean := float64(n) * p
	wantVar := float64(n) * p * (1 - p)
	seMean := math.Sqrt(wantVar / trials)
	if math.Abs(mean-wantMean) > 6*seMean+1e-9 {
		t.Fatalf("Binomial(%d,%v) mean = %v, want %v (se %v)", n, p, mean, wantMean, seMean)
	}
	// Variance of the sample variance ~ 2*var^2/trials for near-normal.
	seVar := wantVar * math.Sqrt(3.0/trials) * 3
	if math.Abs(variance-wantVar) > 6*seVar+1e-9 {
		t.Fatalf("Binomial(%d,%v) variance = %v, want %v", n, p, variance, wantVar)
	}
}

func TestBinomialSmallNP(t *testing.T)  { testBinomialMoments(t, 21, 100, 0.02) }
func TestBinomialMediumNP(t *testing.T) { testBinomialMoments(t, 22, 1000, 0.05) }
func TestBinomialLargeNP(t *testing.T)  { testBinomialMoments(t, 23, 100000, 0.3) }
func TestBinomialHighP(t *testing.T)    { testBinomialMoments(t, 24, 5000, 0.9) }
func TestBinomialHalfP(t *testing.T)    { testBinomialMoments(t, 25, 4096, 0.5) }

func TestBinomialBTRSTails(t *testing.T) {
	// The BTRS path must not produce impossible values over many draws.
	r := New(26)
	for i := 0; i < 200000; i++ {
		v := r.Binomial(10000, 0.01)
		if v < 0 || v > 10000 {
			t.Fatalf("out-of-range binomial draw %d", v)
		}
	}
}

// binomialPin is one pinned Binomial draw and the generator's next
// Uint64 after it, which pins how many words the draw consumed.
type binomialPin struct {
	draw int
	next uint64
}

// TestBinomialPinned pins Binomial draw for draw, and the generator state
// after each draw, on every path: inversion (np < 10, including p = 0.5
// with n < 20, as the balls engine's geometric splitting calls it), BTRS
// on its fast squeeze and its slow acceptance test (p = 0.5 and small p,
// n up to 10⁷), and the p > 0.5 reflection onto both. The channel oracle
// samples through the same Binomial, so only a pin can see it drift.
func TestBinomialPinned(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want []binomialPin
	}{
		{100, 0.02, []binomialPin{{0, 0x6d33f2117d5f5fa8}, {4, 0x551ed9646502da4e}, {1, 0x34e3c59230261dcd}, {1, 0x6f08a3cf76f258de}, {0, 0xd2cc6c969f39af85}, {1, 0x1dacb0e011d9ea51}}},
		{1000000, 1e-6, []binomialPin{{4, 0xeda9bffb7a50d451}, {1, 0x44072176d24237b9}, {1, 0x6b6e4eeb98e4a9dd}, {0, 0xa857263e93701415}, {1, 0x3d998b5de1e35a10}, {1, 0x403c6d18cea4ccda}}},
		{19, 0.5, []binomialPin{{10, 0x34bddd9c71e2693b}, {11, 0x31023307791d8fc4}, {8, 0xc224b19b95cebd4}, {9, 0xc215b7a630e8a69d}, {8, 0x9fd449b17d6f7e29}, {13, 0x326660d1f65db98c}}},
		{7, 0.5, []binomialPin{{3, 0x2b5b8c9c143e6308}, {3, 0x92e764f6c2df7dd9}, {4, 0x8ce58a305e96e9ee}, {3, 0xe31ab939b47fbc64}, {3, 0x2329d840601018bd}, {6, 0x3f7e0c2581bd282}}},
		{2, 0.5, []binomialPin{{0, 0xc5f7175f79fba7df}, {1, 0x80315722ebb3ba8f}, {1, 0x425025e1e8138a2b}, {0, 0xbd7df794421c778a}, {1, 0xeb98fd88d129d6a0}, {0, 0x3b6b30e875fb3c6b}}},
		{20, 0.5, []binomialPin{{12, 0x315997de0ff1ce69}, {11, 0xa02f49c8434178ce}, {10, 0xf3bbd8114820324b}, {6, 0x582231b979611ca7}, {11, 0xccd4a10a7eea20b3}, {10, 0x3cc99662461fba32}}},
		{4096, 0.5, []binomialPin{{2010, 0xfe5ccae0ce3040f5}, {2104, 0x96c472096b3b15cc}, {2036, 0xcd8d5ba008ecf8cc}, {2074, 0x98656fa7a689ea54}, {2064, 0xf1b96c5cb5129260}, {2106, 0x1b881a2441324fa7}}},
		{10000000, 0.5, []binomialPin{{5001922, 0xa440f4c894dcc8fa}, {5001423, 0x49c151dcd84ff555}, {4997574, 0x7c96f19a12a4d0fa}, {4997915, 0xd60f67461834a113}, {5000189, 0xbf7d0d85ea135e35}, {5001389, 0xfe54ef56087fdb37}}},
		{10000, 0.01, []binomialPin{{109, 0x13a5d04a631fd8b8}, {96, 0x15b6f55169b66293}, {88, 0x9c5ff3f6922331c4}, {84, 0xdcfd015079baea7}, {100, 0xabc7a381c83af75e}, {97, 0xbab971697b3dcbd1}}},
		{10000000, 1e-5, []binomialPin{{109, 0x91469c28ff6f2368}, {117, 0x4b98ec57a3984012}, {80, 0x92e082ecc7284541}, {104, 0x2e911604303efd95}, {100, 0x5308e20debcae791}, {95, 0x691f807dac2dd1ab}}},
		{10000000, 0.001, []binomialPin{{9857, 0x2088a5129b2c0bc6}, {10099, 0xb9650215350ddcd3}, {9793, 0xfa5a20b766d66407}, {9952, 0x6e6e998090d3a8d3}, {10173, 0xe05262c7e41dfb8f}, {9995, 0x3b0196e8cee28d77}}},
		{30, 0.7, []binomialPin{{19, 0xdac60d063de14823}, {20, 0x287f6f9843cf67a9}, {22, 0x1e2eb8d4f883f0aa}, {20, 0xc26949f97e358ddf}, {25, 0xf4f1590fee566c9b}, {21, 0x44efc2c9084057a0}}},
		{5000, 0.9, []binomialPin{{4491, 0xa3e1b0aae78654f8}, {4507, 0x95ba262d19b5e3e3}, {4518, 0xafde57be7bc8e5d5}, {4461, 0x3918db2818d7d0ae}, {4517, 0x4791a32f22e69454}, {4488, 0x3b44e9c463a1c868}}},
		{10000000, 0.99, []binomialPin{{9899510, 0xf209061ff5a8773d}, {9900351, 0x1d6416047d0c1454}, {9900040, 0x8f744cab32223339}, {9899621, 0x91e78fb4ee36fa5b}, {9899851, 0xa287eeca0e80d9cf}, {9899775, 0x61eb92cca17b098a}}},
	}
	for ci, c := range cases {
		r := NewStream(2026, uint64(ci))
		for i, want := range c.want {
			got := binomialPin{draw: r.Binomial(c.n, c.p)}
			got.next = r.Uint64()
			if got != want {
				t.Fatalf("Binomial(%d, %v) draw %d = %d then %#x, want %d then %#x",
					c.n, c.p, i, got.draw, got.next, want.draw, want.next)
			}
		}
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialBTRS(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(3000000, 0.01)
	}
}

func BenchmarkBinomialInversion(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(1000000, 1e-6)
	}
}
