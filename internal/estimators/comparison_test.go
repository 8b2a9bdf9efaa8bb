package estimators

import (
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/stats"
	"rfidest/internal/tags"
)

// newSession returns a reader over a synthetic population of n tags.
func newSession(n int, seed uint64) *channel.Reader {
	return channel.NewReader(channel.NewBallsEngine(n, seed), seed+1)
}

// newTagSession returns a reader over a per-tag population.
func newTagSession(t *testing.T, n int, dist tags.Distribution, seed uint64) *channel.Reader {
	t.Helper()
	pop := tags.Generate(n, dist, seed)
	return channel.NewReader(channel.NewTagEngine(pop, channel.IdealRN), seed+1)
}

func TestLOFRoughAccuracy(t *testing.T) {
	// LOF is a constant-factor rough estimator: demand a factor of 2 on
	// the mean over a few runs.
	for _, n := range []int{1000, 50000, 1000000} {
		var sum float64
		const trials = 6
		for trial := 0; trial < trials; trial++ {
			res, err := NewLOF().Estimate(newSession(n, uint64(trial*100+n%97)), Default)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Estimate
		}
		mean := sum / trials
		if mean < float64(n)/2 || mean > float64(n)*2 {
			t.Fatalf("LOF mean estimate %v for n=%d outside factor 2", mean, n)
		}
	}
}

func TestLOFEmptyPopulation(t *testing.T) {
	res, err := NewLOF().Estimate(newSession(0, 3), Default)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("LOF on empty population = %v", res.Estimate)
	}
}

func TestLOFCostAccounting(t *testing.T) {
	r := newSession(1000, 5)
	res, err := NewLOF().Estimate(r, Default)
	if err != nil {
		t.Fatal(err)
	}
	// 10 rounds × (32-bit seed + 32 slots).
	if res.Cost.ReaderBits != 320 || res.Cost.TagSlots != 320 {
		t.Fatalf("LOF cost = %+v", res.Cost)
	}
	if res.Rounds != 10 || res.Slots != 320 {
		t.Fatalf("LOF rounds/slots = %d/%d", res.Rounds, res.Slots)
	}
}

func TestLOFNilSession(t *testing.T) {
	if _, err := NewLOF().Estimate(nil, Default); err == nil {
		t.Fatal("nil session accepted")
	}
}

func TestZOESlotsFormula(t *testing.T) {
	// m = ⌈(d·0.5/(e^{-λ*}(1−e^{-ελ*})))²⌉: for (0.05, 0.05), d=1.96 →
	// edge = 0.2032·0.0766 and m ≈ 3960.
	m, err := ZOESlots(Accuracy{0.05, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if m < 3700 || m > 4200 {
		t.Fatalf("ZOE slots for (0.05,0.05) = %d, want ~3960", m)
	}
	// Looser ε shrinks m roughly quadratically (the 1−e^{-ελ} edge is
	// slightly sublinear in ε, so the ratio lands below 36).
	m2, err := ZOESlots(Accuracy{0.3, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(m) / float64(m2); ratio < 20 || ratio > 30 {
		t.Fatalf("slot ratio eps 0.05→0.3 = %v, want ~24.5", ratio)
	}
}

func TestZOEAccuracy(t *testing.T) {
	violations := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		res, err := NewZOE().Estimate(newSession(500000, uint64(trial)), Default)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RelError(res.Estimate, 500000) > 0.05 {
			violations++
		}
	}
	if violations > 2 {
		t.Fatalf("ZOE violated epsilon in %d/%d trials", violations, trials)
	}
}

func TestZOEDominatedByReaderTraffic(t *testing.T) {
	// The paper's central observation: ZOE's reader→tag time (m×32 bits)
	// dwarfs its tag→reader time (m×1 bit).
	res, err := NewZOE().Estimate(newSession(100000, 9), Default)
	if err != nil {
		t.Fatal(err)
	}
	readerUS := float64(res.Cost.ReaderBits) * 37.76
	tagUS := float64(res.Cost.TagSlots) * 18.88
	if readerUS < 10*tagUS {
		t.Fatalf("reader time %v µs not dominant over tag time %v µs", readerUS, tagUS)
	}
	if res.Seconds < 1 {
		t.Fatalf("ZOE at (0.05,0.05) should take seconds, got %v", res.Seconds)
	}
}

func TestZOEMaxSlotsCap(t *testing.T) {
	z := &ZOE{MaxSlots: 100}
	res, err := z.Estimate(newSession(10000, 11), Accuracy{0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots > 100+320 {
		t.Fatalf("cap ignored: %d slots", res.Slots)
	}
}

func TestSRCFrameSizeFormula(t *testing.T) {
	// l = ⌈7.72/ε²⌉ → 3088 at ε=0.05, 86 at ε=0.3.
	if l, err := SRCFrameSize(0.05); err != nil || l < 3000 || l > 3200 {
		t.Fatalf("SRC frame at eps=0.05 = %d (%v)", l, err)
	}
	if l, err := SRCFrameSize(0.3); err != nil || l < 80 || l > 95 {
		t.Fatalf("SRC frame at eps=0.3 = %d (%v)", l, err)
	}
}

func TestSRCRoundsRule(t *testing.T) {
	if SRCRounds(0.2) != 1 || SRCRounds(0.3) != 1 {
		t.Fatal("delta >= 0.2 must use a single round")
	}
	if SRCRounds(0.05) != 7 {
		t.Fatalf("delta=0.05 rounds = %d, want 7", SRCRounds(0.05))
	}
}

func TestSRCAccuracy(t *testing.T) {
	violations := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		res, err := NewSRC().Estimate(newSession(500000, uint64(40+trial)), Default)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RelError(res.Estimate, 500000) > 0.05 {
			violations++
		}
	}
	// SRC occasionally misses when its rough phase is far off (the paper
	// shows exactly this, Fig. 9); more than a couple is a bug.
	if violations > 2 {
		t.Fatalf("SRC violated epsilon in %d/%d trials", violations, trials)
	}
}

func TestSRCRoundCount(t *testing.T) {
	res, err := NewSRC().Estimate(newSession(100000, 13), Default)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 7+1 { // 7 accurate rounds + 1 rough LOF round
		t.Fatalf("SRC rounds = %d", res.Rounds)
	}
}

func TestBFCEAdapter(t *testing.T) {
	res, err := NewBFCE().Estimate(newSession(200000, 15), Default)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelError(res.Estimate, 200000) > 0.05 {
		t.Fatalf("BFCE adapter estimate %v", res.Estimate)
	}
	if !res.Guarded {
		t.Fatal("BFCE at n=200000 must be feasible/guarded")
	}
	if name := NewBFCE().Name(); name != "BFCE" {
		t.Fatal("name drifted")
	}
}

func TestRelativeSpeeds(t *testing.T) {
	// Fig. 10's shape: time(ZOE) >> time(SRC) > time(BFCE) at (0.05,0.05).
	n := 500000
	bfce, err := NewBFCE().Estimate(newSession(n, 21), Default)
	if err != nil {
		t.Fatal(err)
	}
	zoe, err := NewZOE().Estimate(newSession(n, 22), Default)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSRC().Estimate(newSession(n, 23), Default)
	if err != nil {
		t.Fatal(err)
	}
	if bfce.Seconds > 0.30 {
		t.Fatalf("BFCE took %v s, want ~0.19", bfce.Seconds)
	}
	if zoe.Seconds < 5*bfce.Seconds {
		t.Fatalf("ZOE %v s not much slower than BFCE %v s", zoe.Seconds, bfce.Seconds)
	}
	if src.Seconds < bfce.Seconds {
		t.Fatalf("SRC %v s faster than BFCE %v s at tight accuracy", src.Seconds, bfce.Seconds)
	}
	if src.Seconds > zoe.Seconds {
		t.Fatalf("SRC %v s slower than ZOE %v s", src.Seconds, zoe.Seconds)
	}
}

func TestEstimatorsOnTagEngine(t *testing.T) {
	// All three comparison protocols must run over the per-tag engine too.
	for _, e := range []Estimator{NewBFCE(), NewSRC(), &ZOE{MaxSlots: 4000}} {
		r := newTagSession(t, 50000, tags.T2, 31)
		res, err := e.Estimate(r, Accuracy{0.1, 0.1})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if stats.RelError(res.Estimate, 50000) > 0.15 {
			t.Fatalf("%s estimate %v too far from 50000", e.Name(), res.Estimate)
		}
	}
}

func TestAccuracyValidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad accuracy did not panic")
		}
	}()
	(Accuracy{0, 0.5}).Validate()
}

func TestClampRho(t *testing.T) {
	if clampRho(0, 100) != 0.005 {
		t.Fatal("low clamp")
	}
	if clampRho(1, 100) != 0.995 {
		t.Fatal("high clamp")
	}
	if clampRho(0.4, 100) != 0.4 {
		t.Fatal("mid clamp")
	}
}
