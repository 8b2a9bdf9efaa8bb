package channel

import (
	"math"
	"testing"

	"rfidest/internal/tags"
)

func TestSlotStateString(t *testing.T) {
	if Empty.String() != "empty" || Single.String() != "single" || Collision.String() != "collision" {
		t.Fatal("state names drifted")
	}
	if SlotState(9).String() != "invalid" {
		t.Fatal("invalid state must render")
	}
}

func TestOccupancyCount(t *testing.T) {
	o := Occupancy{Empty, Single, Single, Collision}
	if o.Count(Empty) != 1 || o.Count(Single) != 2 || o.Count(Collision) != 1 {
		t.Fatalf("counts wrong: %v", o)
	}
}

func TestOccupancyConsistentWithBitVec(t *testing.T) {
	// Busy in the bit view == Single or Collision in the occupancy view
	// for the same frame seed.
	pop := tags.Generate(2000, tags.T1, 31)
	e := NewTagEngine(pop, IdealRN)
	req := FrameRequest{W: 512, K: 2, P: 0.5, Seed: 17}
	bits := e.RunFrame(req)
	occ := e.RunFrameOccupancy(req)
	for i := 0; i < bits.Len(); i++ {
		busy := occ[i] != Empty
		if bits.Get(i) != busy {
			t.Fatalf("slot %d: bit=%v occupancy=%v", i, bits.Get(i), occ[i])
		}
	}
}

func TestOccupancyPoissonFractions(t *testing.T) {
	// With load λ per slot, fractions are ~e^{-λ}, λe^{-λ}, rest.
	const n, w = 8192, 8192
	e := NewBallsEngine(n, 41)
	req := FrameRequest{W: w, K: 1, P: 1}
	var empty, single, coll int
	const frames = 6
	for i := 0; i < frames; i++ {
		req.Seed = uint64(i)
		occ := e.RunFrameOccupancy(req)
		empty += occ.Count(Empty)
		single += occ.Count(Single)
		coll += occ.Count(Collision)
	}
	total := float64(w * frames)
	lambda := 1.0
	if got, want := float64(empty)/total, math.Exp(-lambda); math.Abs(got-want) > 0.01 {
		t.Fatalf("empty fraction %v, want ~%v", got, want)
	}
	if got, want := float64(single)/total, lambda*math.Exp(-lambda); math.Abs(got-want) > 0.01 {
		t.Fatalf("single fraction %v, want ~%v", got, want)
	}
	if got, want := float64(coll)/total, 1-2*math.Exp(-lambda); math.Abs(got-want) > 0.01 {
		t.Fatalf("collision fraction %v, want ~%v", got, want)
	}
}

func TestOccupancyEnginesAgree(t *testing.T) {
	const n = 3000
	pop := tags.Generate(n, tags.T1, 43)
	te := NewTagEngine(pop, IdealRN)
	be := NewBallsEngine(n, 43)
	req := FrameRequest{W: 1024, K: 1, P: 0.8}
	var sT, sB float64
	const frames = 20
	for i := 0; i < frames; i++ {
		req.Seed = uint64(i)
		sT += float64(te.RunFrameOccupancy(req).Count(Single))
		sB += float64(be.RunFrameOccupancy(req).Count(Single))
	}
	mT, mB := sT/frames, sB/frames
	if math.Abs(mT-mB) > 30 {
		t.Fatalf("singleton counts disagree: tag=%v balls=%v", mT, mB)
	}
}

func TestReaderOccupancyCharging(t *testing.T) {
	pop := tags.Generate(100, tags.T1, 45)
	r := NewReader(NewTagEngine(pop, IdealRN), 46)
	occ := r.executeFrameOccupancy(FrameRequest{W: 128, K: 1, P: 1, Seed: 1}, 10)
	if len(occ) != 128 {
		t.Fatalf("observed %d slots", len(occ))
	}
	if got := r.Cost().TagSlots; got != 1280 {
		t.Fatalf("charged %d tag bits for 128 slots of 10 bits", got)
	}
}

func TestReaderOccupancyPanics(t *testing.T) {
	pop := tags.Generate(1, tags.T1, 45)
	r := NewReader(NewTagEngine(pop, IdealRN), 46)
	defer func() {
		if recover() == nil {
			t.Fatal("slotBits=0 did not panic")
		}
	}()
	r.executeFrameOccupancy(FrameRequest{W: 8, K: 1, P: 1, Seed: 1}, 0)
}

func TestNoisyOccupancyFlips(t *testing.T) {
	inner := NewBallsEngine(0, 1)
	e := NewNoisyEngine(inner, 0.5, 0, 47)
	occ := e.RunFrameOccupancy(FrameRequest{W: 4096, K: 1, P: 1, Seed: 1})
	frac := float64(occ.Count(Single)) / 4096
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("phantom singleton rate %v, want ~0.5", frac)
	}
}
