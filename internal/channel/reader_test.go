package channel

import (
	"math"
	"testing"

	"rfidest/internal/tags"
)

func newTestReader(n int) *Reader {
	pop := tags.Generate(n, tags.T1, 21)
	return NewReader(NewTagEngine(pop, IdealRN), 22)
}

func TestReaderChargesBroadcast(t *testing.T) {
	r := newTestReader(10)
	r.BroadcastParams(96)
	c := r.Cost()
	if c.ReaderBits != 96 || c.Intervals != 1 || c.TagSlots != 0 {
		t.Fatalf("cost = %+v", c)
	}
}

func TestReaderChargesFrame(t *testing.T) {
	r := newTestReader(100)
	b := r.ExecuteFrame(FrameRequest{W: 8192, K: 3, P: 0.1, Observe: 1024, Seed: r.NextSeed()})
	if b.Len() != 1024 {
		t.Fatalf("frame length %d", b.Len())
	}
	c := r.Cost()
	if c.TagSlots != 1024 || c.Intervals != 1 {
		t.Fatalf("cost = %+v", c)
	}
}

func TestReaderScanFirstBusyCharge(t *testing.T) {
	r := newTestReader(1000)
	req := FrameRequest{W: 1 << 16, K: 1, P: 1, Seed: 5}
	pos := r.scanFirstBusy(req, req.W)
	if pos < 0 {
		t.Fatal("1000 tags at p=1 must respond somewhere")
	}
	if got := r.Cost().TagSlots; got != pos+1 {
		t.Fatalf("charged %d slots for first busy at %d", got, pos)
	}
}

func TestReaderScanFirstBusyMissCharge(t *testing.T) {
	r := newTestReader(0)
	req := FrameRequest{W: 64, K: 1, P: 1, Seed: 5}
	if pos := r.scanFirstBusy(req, 64); pos != -1 {
		t.Fatalf("pos = %d", pos)
	}
	if got := r.Cost().TagSlots; got != 64 {
		t.Fatalf("charged %d slots for a full idle scan of 64", got)
	}
}

func TestReaderSecondsMatchesProfile(t *testing.T) {
	r := newTestReader(10)
	r.BroadcastParams(32)
	r.ExecuteFrame(FrameRequest{W: 100, K: 1, P: 0.5, Seed: 1})
	want := (32*37.76 + 2*302 + 100*18.88) / 1e6
	if math.Abs(r.Seconds()-want) > 1e-12 {
		t.Fatalf("Seconds = %v, want %v", r.Seconds(), want)
	}
}

func TestReaderSeedsUniquePerCall(t *testing.T) {
	r := newTestReader(1)
	a, b := r.NextSeed(), r.NextSeed()
	if a == b {
		t.Fatal("NextSeed repeated")
	}
}

func TestNoisyEngineFlipsRates(t *testing.T) {
	// All-idle inner frame + falseBusy: busy fraction ≈ falseBusy.
	inner := NewBallsEngine(0, 1)
	e := NewNoisyEngine(inner, 0.3, 0, 2)
	busy := 0
	const w, frames = 4096, 4
	for i := 0; i < frames; i++ {
		busy += e.RunFrame(FrameRequest{W: w, K: 1, P: 1, Seed: uint64(i)}).CountBusy()
	}
	got := float64(busy) / (w * frames)
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("false busy rate %v, want ~0.3", got)
	}
}

func TestNoisyEngineFalseIdle(t *testing.T) {
	// Saturated inner frame + falseIdle: idle fraction ≈ falseIdle.
	pop := tags.Generate(100000, tags.T1, 3)
	inner := NewTagEngine(pop, IdealRN)
	e := NewNoisyEngine(inner, 0, 0.25, 4)
	b := e.RunFrame(FrameRequest{W: 512, K: 3, P: 1, Seed: 9})
	got := b.RhoIdle()
	if math.Abs(got-0.25) > 0.07 {
		t.Fatalf("false idle rate %v, want ~0.25", got)
	}
}

func TestNoisyEngineZeroNoiseIsTransparent(t *testing.T) {
	pop := tags.Generate(1000, tags.T1, 5)
	inner := NewTagEngine(pop, IdealRN)
	e := NewNoisyEngine(inner, 0, 0, 6)
	req := FrameRequest{W: 256, K: 2, P: 0.5, Seed: 11}
	a := inner.RunFrame(req)
	b := e.RunFrame(req)
	if !a.Equal(b) {
		t.Fatal("zero-noise wrapper altered the frame")
	}
	if e.Size() != inner.Size() {
		t.Fatal("Size not delegated")
	}
}

func TestNoisyEnginePanicsOnBadRates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad rates did not panic")
		}
	}()
	NewNoisyEngine(NewBallsEngine(1, 1), -0.1, 0, 1)
}

func TestNoisyFirstResponsePreemption(t *testing.T) {
	// With certain false-busy, slot 0 is always reported.
	e := NewNoisyEngine(NewBallsEngine(0, 1), 1, 0, 7)
	if got := e.FirstResponse(FrameRequest{W: 64, K: 1, P: 1, Seed: 1}, 64); got != 0 {
		t.Fatalf("FirstResponse = %d, want 0", got)
	}
	// With no noise it delegates.
	e2 := NewNoisyEngine(NewBallsEngine(0, 1), 0, 0, 8)
	if got := e2.FirstResponse(FrameRequest{W: 64, K: 1, P: 1, Seed: 1}, 64); got != -1 {
		t.Fatalf("FirstResponse = %d, want -1", got)
	}
}
