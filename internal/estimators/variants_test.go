package estimators

import (
	"math"
	"testing"

	"rfidest/internal/stats"
)

func TestBFCEMultiAveragesDown(t *testing.T) {
	// The multi-round variant's error distribution must be tighter than a
	// single round's: compare mean absolute errors over trials.
	const n, trials = 200000, 8
	var single, multi float64
	for trial := 0; trial < trials; trial++ {
		r1 := newSession(n, uint64(400+trial))
		s, err := Estimate(NewBFCE(), r1, Default)
		if err != nil {
			t.Fatal(err)
		}
		single += stats.RelError(s.Estimate, n)

		r2 := newSession(n, uint64(500+trial))
		m, err := Estimate(NewBFCEMulti(), r2, Default)
		if err != nil {
			t.Fatal(err)
		}
		multi += stats.RelError(m.Estimate, n)
	}
	if multi >= single {
		t.Fatalf("multi-round mean error %v not below single-round %v", multi/trials, single/trials)
	}
}

func TestBFCEMultiCostScalesWithRounds(t *testing.T) {
	r := newSession(100000, 42)
	res, err := Estimate(NewBFCEMulti(), r, Default)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != bfceMultiRuns {
		t.Fatalf("rounds = %d, want %d", res.Rounds, bfceMultiRuns)
	}
	// 5 × (probe + 1024 + 8192) slots at minimum.
	if res.Slots < bfceMultiRuns*9216 {
		t.Fatalf("slots = %d, want >= %d", res.Slots, bfceMultiRuns*9216)
	}
	if res.Seconds < 0.83 || res.Seconds > 1.25 {
		t.Fatalf("5-round air time %v s, want ~0.95", res.Seconds)
	}
}

func TestBFCEMultiNilSession(t *testing.T) {
	if _, err := Estimate(NewBFCEMulti(), nil, Default); err == nil {
		t.Fatal("nil session accepted")
	}
}

func TestZOEBatchedMatchesZOEAccuracy(t *testing.T) {
	const n = 300000
	res, err := Estimate(NewZOEBatched(), newSession(n, 77), Default)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelError(res.Estimate, n) > 0.05 {
		t.Fatalf("batched ZOE estimate %v", res.Estimate)
	}
}

func TestZOEBatchedCollapsesCost(t *testing.T) {
	// The ablation's whole point: same observations, ~40x less air time,
	// because the per-slot seed broadcasts are gone.
	n := 300000
	zoe, err := Estimate(NewZOE(), newSession(n, 81), Default)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Estimate(NewZOEBatched(), newSession(n, 82), Default)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Seconds > zoe.Seconds/10 {
		t.Fatalf("batched %v s not << ZOE %v s", batched.Seconds, zoe.Seconds)
	}
	// And the observation counts are the same.
	if math.Abs(float64(batched.Slots-zoe.Slots)) > 1 {
		t.Fatalf("slot counts differ: %d vs %d", batched.Slots, zoe.Slots)
	}
}

func TestZOEBatchedNilSession(t *testing.T) {
	if _, err := Estimate(NewZOEBatched(), nil, Default); err == nil {
		t.Fatal("nil session accepted")
	}
}

func TestVariantNames(t *testing.T) {
	if NewBFCEMulti().Name() != "BFCE-multi" || NewZOEBatched().Name() != "ZOE-batched" {
		t.Fatal("variant names drifted")
	}
}
