package channel

import (
	"math"
	"testing"

	"rfidest/internal/stats"
	"rfidest/internal/tags"
)

func TestBitVecCounts(t *testing.T) {
	b := FromBools([]bool{true, false, true, true, false})
	if b.CountBusy() != 3 || b.CountIdle() != 2 {
		t.Fatalf("counts wrong: busy=%d idle=%d", b.CountBusy(), b.CountIdle())
	}
	if math.Abs(b.RhoIdle()-0.4) > 1e-12 {
		t.Fatalf("RhoIdle = %v", b.RhoIdle())
	}
	if b.FirstBusy() != 0 {
		t.Fatalf("FirstBusy = %d", b.FirstBusy())
	}
	if b.FirstIdle() != 1 {
		t.Fatalf("FirstIdle = %d", b.FirstIdle())
	}
}

func TestBitVecEmptyAndAllIdle(t *testing.T) {
	if (BitVec{}).RhoIdle() != 0 {
		t.Fatal("empty RhoIdle != 0")
	}
	if (BitVec{}).FirstBusy() != -1 || (BitVec{}).FirstIdle() != 0 {
		t.Fatal("empty frame scan positions wrong")
	}
	b := FromBools([]bool{false, false})
	if b.FirstBusy() != -1 {
		t.Fatal("all-idle FirstBusy != -1")
	}
	if b.RhoIdle() != 1 {
		t.Fatal("all-idle RhoIdle != 1")
	}
}

func TestBitVecRuns(t *testing.T) {
	b := FromBools([]bool{true, true, false, true, false, true, true, true})
	if runs := b.RunCount(); runs != 3 {
		t.Fatalf("RunCount = %d, want 3", runs)
	}
	if FromBools([]bool{false}).RunCount() != 0 {
		t.Fatal("idle-only frame must have no runs")
	}
}

// TestBitVecRunsEdgeCases pins the trailing-run handling of RunCount on
// both the packed and the reference implementation: a run that extends to
// the last slot counts, an all-busy frame is one maximal run, and an empty
// frame (the zero BitVec too) has none. ART's run statistic is exactly
// this count.
func TestBitVecRunsEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		bits []bool
		want int
	}{
		{"empty frame", nil, 0},
		{"all busy", []bool{true, true, true, true}, 1},
		{"trailing busy run", []bool{false, true, false, false, true, true}, 2},
		{"single trailing slot", []bool{false, false, true}, 1},
		{"all busy across words", allBusy(130), 1},
		{"trailing run across words", append(make([]bool, 60), allBusy(10)...), 1},
	}
	for _, c := range cases {
		if got := FromBools(c.bits).RunCount(); got != c.want {
			t.Errorf("%s: packed RunCount = %d, want %d", c.name, got, c.want)
		}
		if got := refVec(c.bits).runCount(); got != c.want {
			t.Errorf("%s: reference runCount = %d, want %d", c.name, got, c.want)
		}
	}
	if got := (BitVec{}).RunCount(); got != 0 {
		t.Errorf("zero BitVec: RunCount = %d, want 0", got)
	}
}

func allBusy(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

func TestFrameRequestValidation(t *testing.T) {
	bad := []FrameRequest{
		{W: 0, K: 1, P: 0.5},
		{W: 8, K: 0, P: 0.5},
		{W: 8, K: 1, P: -0.1},
		{W: 8, K: 1, P: 1.1},
		{W: 8, K: 1, P: 0.5, Observe: 9},
		{W: 8, K: 1, P: 0.5, Observe: -1},
	}
	for i, req := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			req.validate()
		}()
	}
	if got := (FrameRequest{W: 8, K: 1, P: 0.5}).validate(); got != 8 {
		t.Fatalf("default observe = %d", got)
	}
	if got := (FrameRequest{W: 8, K: 1, P: 0.5, Observe: 3}).validate(); got != 3 {
		t.Fatalf("explicit observe = %d", got)
	}
}

// expectedRho is e^{-kpn/w}, Theorem 1's idle probability.
func expectedRho(n, k int, p float64, w int) float64 {
	return math.Exp(-float64(k) * p * float64(n) / float64(w))
}

func testEngineRho(t *testing.T, e Engine, n int, label string) {
	t.Helper()
	req := FrameRequest{W: 8192, K: 3, P: 0.1, Seed: 99}
	const rounds = 8
	sum := 0.0
	for i := 0; i < rounds; i++ {
		req.Seed = uint64(1000 + i)
		sum += e.RunFrame(req).RhoIdle()
	}
	got := sum / rounds
	want := expectedRho(n, req.K, req.P, req.W)
	// sd of one frame's rho ~ sqrt(rho(1-rho)/w) ~ 0.004; averaged over 8.
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("%s: mean rho = %v, want ~%v", label, got, want)
	}
}

func TestTagEngineRhoMatchesTheorem1(t *testing.T) {
	pop := tags.Generate(20000, tags.T1, 5)
	testEngineRho(t, NewTagEngine(pop, IdealRN), 20000, "ideal-rn")
	testEngineRho(t, NewTagEngine(pop, IdealID), 20000, "ideal-id")
	testEngineRho(t, NewTagEngine(pop, PaperXOR), 20000, "paper-xor")
}

func TestBallsEngineRhoMatchesTheorem1(t *testing.T) {
	testEngineRho(t, NewBallsEngine(20000, 7), 20000, "balls")
}

func TestTagEngineDistributionInvariance(t *testing.T) {
	// The same frame over T1/T2/T3 populations of equal size must produce
	// statistically identical rho (the core robustness claim).
	req := FrameRequest{W: 8192, K: 3, P: 0.2, Seed: 31337}
	var rhos []float64
	for _, d := range tags.Distributions {
		pop := tags.Generate(30000, d, 77)
		e := NewTagEngine(pop, IdealRN)
		sum := 0.0
		for i := 0; i < 6; i++ {
			req.Seed = uint64(42 + i)
			sum += e.RunFrame(req).RhoIdle()
		}
		rhos = append(rhos, sum/6)
	}
	for _, r := range rhos[1:] {
		if math.Abs(r-rhos[0]) > 0.012 {
			t.Fatalf("rho differs across distributions: %v", rhos)
		}
	}
}

// agreeShape is a population size and a frame geometry to run on it.
type agreeShape struct {
	name string
	n    int
	req  FrameRequest
	tol  float64 // TestEnginesAgree: allowed gap between mean busy counts
}

// agreeShapes are the frames TagEngine and BallsEngine are compared on: a
// whole 1,024-slot frame, and BFCE's 32-slot probe window and 1,024-slot
// rough prefix of an 8,192-slot frame, which BallsEngine thins to their
// heard responses before placing them. On the prefixes, n = 20,000 tags at
// p = 40/1024 load each slot with about 0.29 responses.
var agreeShapes = []agreeShape{
	// Busy count ~ w(1-e^{-λ}) ≈ 536; per-frame sd ~ sqrt(w·p(1-p)) ~ 21.
	{"w=1024", 5000, FrameRequest{W: 1024, K: 3, P: 0.05}, 25},
	// Busy count ≈ 8 of 32, sd ≈ 2.5.
	{"probe", 20000, FrameRequest{W: 8192, K: 3, P: 40.0 / 1024, Observe: 32}, 3},
	// Busy count ≈ 254 of 1,024, sd ≈ 14.
	{"rough", 20000, FrameRequest{W: 8192, K: 3, P: 40.0 / 1024, Observe: 1024}, 17},
}

func TestEnginesAgree(t *testing.T) {
	// TagEngine and BallsEngine must sample the same busy-count
	// distribution. Compare mean busy counts over repeated frames.
	const trials = 30
	for _, shape := range agreeShapes {
		pop := tags.Generate(shape.n, tags.T1, 9)
		te := NewTagEngine(pop, IdealRN)
		be := NewBallsEngine(shape.n, 9)
		req := shape.req
		var sumT, sumB float64
		for i := 0; i < trials; i++ {
			req.Seed = uint64(i)
			sumT += float64(te.RunFrame(req).CountBusy())
			sumB += float64(be.RunFrame(req).CountBusy())
		}
		meanT, meanB := sumT/trials, sumB/trials
		if math.Abs(meanT-meanB) > shape.tol {
			t.Errorf("%s: engines disagree: tag=%v balls=%v", shape.name, meanT, meanB)
		}
	}
}

func TestEnginesAgreeKS(t *testing.T) {
	// Distribution-level agreement: the busy-count and transmission
	// samples of the two engines must pass a two-sample
	// Kolmogorov–Smirnov test, not merely share a mean.
	const frames = 400
	shapes := append([]agreeShape{{name: "w=512", n: 3000, req: FrameRequest{W: 512, K: 2, P: 0.1}}}, agreeShapes[1:]...)
	for _, shape := range shapes {
		pop := tags.Generate(shape.n, tags.T1, 117)
		te := NewTagEngine(pop, IdealRN)
		be := NewBallsEngine(shape.n, 117)
		req := shape.req
		var busyT, busyB, txT, txB []float64
		for i := 0; i < frames; i++ {
			req.Seed = uint64(i)
			before := te.TagTransmissions()
			busyT = append(busyT, float64(te.RunFrame(req).CountBusy()))
			txT = append(txT, float64(te.TagTransmissions()-before))
			req.Seed = uint64(i + frames)
			before = be.TagTransmissions()
			busyB = append(busyB, float64(be.RunFrame(req).CountBusy()))
			txB = append(txB, float64(be.TagTransmissions()-before))
		}
		if !stats.SameDistribution(busyT, busyB, 0.001) {
			t.Errorf("%s: engine busy-count distributions differ (KS=%v)", shape.name, stats.KSStatistic(busyT, busyB))
		}
		if !stats.SameDistribution(txT, txB, 0.001) {
			t.Errorf("%s: engine transmission distributions differ (KS=%v)", shape.name, stats.KSStatistic(txT, txB))
		}
	}
}

func TestTagEngineDeterministicPerSeed(t *testing.T) {
	pop := tags.Generate(1000, tags.T1, 3)
	e := NewTagEngine(pop, IdealRN)
	req := FrameRequest{W: 256, K: 2, P: 0.5, Seed: 7}
	// The engine's next call reuses the frame's buffer, so keep a copy.
	a := FromBools(e.RunFrame(req).Bools())
	b := e.RunFrame(req)
	if !a.Equal(b) {
		t.Fatal("same seed produced different frames")
	}
	req.Seed = 8
	if a.Equal(e.RunFrame(req)) {
		t.Fatal("different seeds produced identical frames")
	}
}

func TestGeometricFrameShape(t *testing.T) {
	// With geometric hashing and full persistence, slot 0 collects about
	// half the tags, so low slots are busy and (for n << 2^w) high slots
	// idle.
	pop := tags.Generate(1000, tags.T1, 4)
	e := NewTagEngine(pop, IdealRN)
	b := e.RunFrame(FrameRequest{W: 32, K: 1, P: 1, Dist: Geometric, Seed: 5})
	if !b.Get(0) || !b.Get(1) {
		t.Fatal("geometric frame: low slots must be busy for n=1000")
	}
	if b.Get(31) {
		t.Fatal("geometric frame: slot 31 busy is absurd for n=1000")
	}
}

func TestObserveTruncation(t *testing.T) {
	pop := tags.Generate(1000, tags.T1, 6)
	e := NewTagEngine(pop, IdealRN)
	b := e.RunFrame(FrameRequest{W: 8192, K: 3, P: 0.5, Observe: 1024, Seed: 1})
	if b.Len() != 1024 {
		t.Fatalf("observed %d slots, want 1024", b.Len())
	}
}

func TestFirstResponseAgainstFullFrame(t *testing.T) {
	pop := tags.Generate(500, tags.T1, 8)
	e := NewTagEngine(pop, IdealRN)
	req := FrameRequest{W: 1 << 16, K: 1, P: 1, Seed: 123}
	full := e.RunFrame(req)
	want := full.FirstBusy()
	if got := e.FirstResponse(req, req.W); got != want {
		t.Fatalf("FirstResponse = %d, full frame says %d", got, want)
	}
	// A scan bound before the first response must return -1.
	if want > 0 {
		if got := e.FirstResponse(req, want); got != -1 {
			t.Fatalf("bounded scan returned %d, want -1", got)
		}
	}
}

func TestFirstResponseEmptyPopulation(t *testing.T) {
	pop := tags.Generate(0, tags.T1, 8)
	e := NewTagEngine(pop, IdealRN)
	if got := e.FirstResponse(FrameRequest{W: 64, K: 1, P: 1, Seed: 1}, 64); got != -1 {
		t.Fatalf("empty population FirstResponse = %d", got)
	}
	be := NewBallsEngine(0, 1)
	if got := be.FirstResponse(FrameRequest{W: 64, K: 1, P: 1, Seed: 1}, 64); got != -1 {
		t.Fatalf("empty balls FirstResponse = %d", got)
	}
}

func TestBallsFirstResponseDistribution(t *testing.T) {
	// E[min of n uniforms on [0,w)] ≈ w/(n+1).
	const n, w, trials = 100, 1 << 20, 2000
	be := NewBallsEngine(n, 10)
	sum := 0.0
	for i := 0; i < trials; i++ {
		pos := be.FirstResponse(FrameRequest{W: w, K: 1, P: 1, Seed: uint64(i)}, w)
		if pos < 0 {
			t.Fatal("n=100 frame cannot be empty at p=1")
		}
		sum += float64(pos)
	}
	got := sum / trials
	want := float64(w) / float64(n+1)
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("mean first response %v, want ~%v", got, want)
	}
}

func TestPaperXORRequiresPow2(t *testing.T) {
	pop := tags.Generate(10, tags.T1, 2)
	e := NewTagEngine(pop, PaperXOR)
	defer func() {
		if recover() == nil {
			t.Fatal("PaperXOR with non-pow2 w did not panic")
		}
	}()
	e.RunFrame(FrameRequest{W: 100, K: 1, P: 0.5, Seed: 1})
}

func TestHashModeString(t *testing.T) {
	if IdealRN.String() != "ideal-rn" || IdealID.String() != "ideal-id" || PaperXOR.String() != "paper-xor" {
		t.Fatal("hash mode names drifted")
	}
	if HashMode(9).String() != "unknown" {
		t.Fatal("unknown mode must render")
	}
}
