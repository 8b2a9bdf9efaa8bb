package workload

import (
	"math"
	"testing"
)

func TestDriftConservation(t *testing.T) {
	tl, err := Drift(50, 100000, 0.05, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Rounds) != 50 {
		t.Fatalf("rounds = %d", len(tl.Rounds))
	}
	for i := 1; i < len(tl.Rounds); i++ {
		prev, cur := tl.Rounds[i-1], tl.Rounds[i]
		if cur.Start < prev.Start {
			t.Fatalf("round %d: window moved backwards", i)
		}
		if cur.N != prev.N-tl.Departures(i)+tl.Arrivals(i) {
			t.Fatalf("round %d: size inconsistent with arrivals/departures", i)
		}
		if cur.N < 1 {
			t.Fatalf("round %d: empty population", i)
		}
	}
}

func TestDriftBalancedStaysNearN0(t *testing.T) {
	tl, err := Drift(30, 100000, 0.02, 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	last := tl.Rounds[len(tl.Rounds)-1].N
	if math.Abs(float64(last)-100000)/100000 > 0.2 {
		t.Fatalf("balanced drift wandered to %d", last)
	}
}

func TestDriftTrending(t *testing.T) {
	up, err := Drift(30, 50000, 0.05, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	if up.Rounds[29].N <= 50000 {
		t.Fatalf("net-arrival drift did not grow: %d", up.Rounds[29].N)
	}
	down, err := Drift(30, 50000, 0.01, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	if down.Rounds[29].N >= 50000 {
		t.Fatalf("net-departure drift did not shrink: %d", down.Rounds[29].N)
	}
}

func TestDriftValidation(t *testing.T) {
	for _, f := range []func() (*Timeline, error){
		func() (*Timeline, error) { return Drift(0, 10, 0.1, 0.1, 1) },
		func() (*Timeline, error) { return Drift(10, 0, 0.1, 0.1, 1) },
		func() (*Timeline, error) { return Drift(10, 10, 1.0, 0.1, 1) },
		func() (*Timeline, error) { return Drift(10, 10, 0.1, -0.1, 1) },
	} {
		if _, err := f(); err == nil {
			t.Fatal("invalid drift accepted")
		}
	}
}

func TestEdgeAccessors(t *testing.T) {
	tl := &Timeline{Rounds: []Round{{0, 10}, {2, 12}}}
	if tl.Departures(0) != 0 || tl.Arrivals(0) != 0 {
		t.Fatal("round 0 has no predecessor")
	}
	if tl.Departures(5) != 0 || tl.Arrivals(5) != 0 {
		t.Fatal("out-of-range round must report zero movement")
	}
	if tl.Departures(1) != 2 || tl.Arrivals(1) != 4 {
		t.Fatalf("movement = %d/%d", tl.Departures(1), tl.Arrivals(1))
	}
	if (Round{3, 7}).End() != 10 {
		t.Fatal("End wrong")
	}
}
