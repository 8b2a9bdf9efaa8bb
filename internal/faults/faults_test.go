package faults

import (
	"errors"
	"math"
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/tags"
	"rfidest/internal/timing"
)

// fixed is a deterministic inner engine: every frame observes the same
// busy pattern (zero-padded to the observed width).
type fixed struct{ busy []bool }

func (f fixed) RunFrame(req channel.FrameRequest) channel.BitVec {
	n := req.Observe
	if n == 0 {
		n = req.W
	}
	out := make([]bool, n)
	copy(out, f.busy)
	return channel.FromBools(out)
}

func (f fixed) FirstResponse(req channel.FrameRequest, maxScan int) int {
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	for i := 0; i < maxScan && i < len(f.busy); i++ {
		if f.busy[i] {
			return i
		}
	}
	return -1
}

func (f fixed) Size() int { return len(f.busy) }

func pattern(n int, everyKthBusy int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = i%everyKthBusy == 0
	}
	return b
}

func req(w int) channel.FrameRequest {
	return channel.FrameRequest{W: w, K: 1, P: 1, Seed: 1}
}

func TestZeroPlanDisabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Fatal("zero plan enabled")
	}
	if Severity(0).Enabled() {
		t.Fatal("Severity(0) enabled")
	}
	if !Severity(0.5).Enabled() {
		t.Fatal("Severity(0.5) disabled")
	}
	if err := Severity(1).Validate(); err != nil {
		t.Fatalf("Severity(1) invalid: %v", err)
	}
}

func TestValidateRejectsDegenerate(t *testing.T) {
	nan := math.NaN()
	bad := []Plan{
		{BurstFlipGood: nan},
		{ErasureRate: nan},
		{TruncRate: math.Inf(1)},
		{TruncTail: -0.1},
		{StallRate: 1.5},
		{StallSlots: -1},
		{StallRate: 0.5}, // stalls enabled but zero slots charged
		{BurstFlipGood: 0.1, BurstPGB: 0.5, BurstPBG: 0}, // absorbing bad state
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: degenerate plan accepted: %+v", i, p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a NaN plan")
		}
	}()
	New(fixed{}, Plan{ErasureRate: nan}, 1)
}

func TestSeverityRejectsNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Severity accepted NaN")
		}
	}()
	Severity(math.NaN())
}

func TestErasureOnlyClearsBusySlots(t *testing.T) {
	inner := fixed{busy: pattern(256, 2)}
	e := New(inner, Plan{ErasureRate: 0.5}, 7)
	before := inner.RunFrame(req(256))
	after := e.RunFrame(req(256))
	erased := 0
	for i := 0; i < 256; i++ {
		if after.Get(i) && !before.Get(i) {
			t.Fatalf("erasure created a busy slot at %d", i)
		}
		if before.Get(i) && !after.Get(i) {
			erased++
		}
	}
	if erased == 0 {
		t.Fatal("0.5 erasure rate erased nothing over 128 busy slots")
	}
	if got := e.FaultStats().Erasures; got != erased {
		t.Fatalf("stats count %d erasures, frame shows %d", got, erased)
	}
}

func TestTruncationClearsTail(t *testing.T) {
	inner := fixed{busy: pattern(64, 1)} // all busy
	e := New(inner, Plan{TruncRate: 1, TruncTail: 0.25}, 3)
	b := e.RunFrame(req(64))
	for i := 0; i < 48; i++ {
		if !b.Get(i) {
			t.Fatalf("slot %d before the cut was cleared", i)
		}
	}
	for i := 48; i < 64; i++ {
		if b.Get(i) {
			t.Fatalf("slot %d past the cut still busy", i)
		}
	}
	if e.FaultStats().Truncations != 1 {
		t.Fatalf("truncations = %d", e.FaultStats().Truncations)
	}
}

func TestBurstNoiseDeterministicPerSeed(t *testing.T) {
	plan := Plan{BurstFlipGood: 0.01, BurstFlipBad: 0.3, BurstPGB: 0.05, BurstPBG: 0.2}
	inner := fixed{busy: pattern(1024, 3)}
	a := New(inner, plan, 42).RunFrame(req(1024))
	b := New(inner, plan, 42).RunFrame(req(1024))
	if !a.Equal(b) {
		t.Fatal("same (plan, seed) produced different frames")
	}
	c := New(inner, plan, 43).RunFrame(req(1024))
	if a.Equal(c) {
		t.Fatal("different seeds produced identical 1024-slot fault schedules")
	}
	e := New(inner, plan, 42)
	e.RunFrame(req(1024))
	if e.FaultStats().BurstFlips == 0 {
		t.Fatal("burst model flipped nothing over 1024 slots")
	}
}

func TestStallChargesClockThroughReader(t *testing.T) {
	plan := Plan{StallRate: 1, StallSlots: 64}
	e := New(fixed{busy: pattern(32, 2)}, plan, 5)
	r := channel.NewReader(e, 6)
	r.ExecuteFrame(req(32))
	cost := r.Cost()
	if cost.TagSlots != 32+64 {
		t.Fatalf("clock charged %d slots, want frame 32 + stall 64", cost.TagSlots)
	}
	if cost.Intervals != 2 { // listen turnaround + stall recovery
		t.Fatalf("clock charged %d intervals, want 2", cost.Intervals)
	}
	if c := e.TakeStall(); c != (timing.Cost{}) {
		t.Fatalf("stall ledger not drained: %+v", c)
	}
	st := e.FaultStats()
	if st.Stalls != 1 || st.StallSlots != 64 {
		t.Fatalf("stall stats %+v", st)
	}
}

func TestFirstResponsePreemptAndMiss(t *testing.T) {
	inner := fixed{busy: append(make([]bool, 10), true)} // first busy at 10
	// Certain flip in the good state: slot 0 pre-empts the true response.
	pre := New(inner, Plan{BurstFlipGood: 1, BurstPBG: 1}, 9)
	if got := pre.FirstResponse(req(64), 64); got != 0 {
		t.Fatalf("certain false-busy returned %d, want 0", got)
	}
	// Certain erasure: the true response is missed.
	miss := New(inner, Plan{ErasureRate: 1}, 9)
	if got := miss.FirstResponse(req(64), 64); got != -1 {
		t.Fatalf("certain erasure returned %d, want -1", got)
	}
	// No faults on the scanned path: truth passes through.
	clean := New(inner, Plan{TruncRate: 1, TruncTail: 0.5}, 9)
	if got := clean.FirstResponse(req(64), 64); got != 10 {
		t.Fatalf("truncation-only scan returned %d, want 10", got)
	}
}

func TestEnergyPassthrough(t *testing.T) {
	e := New(fixed{}, Plan{ErasureRate: 0.1}, 1)
	if got := e.TagTransmissions(); got != -1 {
		t.Fatalf("unmetered inner reported %d", got)
	}
}

// TestCheckFrameDelegates: the injector wrapper asks the engine it wraps,
// so a paper-hash frame it cannot address is refused through it.
func TestCheckFrameDelegates(t *testing.T) {
	paper := channel.NewTagEngine(tags.Generate(100, tags.T1, 3), channel.PaperXOR)
	e := New(paper, Severity(1), 7)
	if err := channel.CheckFrame(e, channel.FrameRequest{W: 1, K: 1, P: 1}); !errors.Is(err, channel.ErrUnsupportedRound) {
		t.Fatalf("CheckFrame(W=1) = %v, want ErrUnsupportedRound", err)
	}
	if err := channel.CheckFrame(e, channel.FrameRequest{W: 64, K: 1, P: 1}); err != nil {
		t.Fatalf("CheckFrame(W=64) = %v", err)
	}
}
