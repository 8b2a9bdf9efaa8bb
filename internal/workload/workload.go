// Package workload generates dynamic tag-population timelines for
// monitoring experiments: sequences of rounds in which tags arrive and
// depart, expressed as sliding windows over a shared tag universe so that
// consecutive rounds genuinely share the tags that did not move (which is
// what differential estimation and warm-started monitoring exploit).
//
// A Round's population is the window [Start, Start+N) of the universe;
// between rounds, Start advancing models departures (the oldest stock
// ships first) and the window's far end advancing models arrivals.
package workload

import (
	"errors"

	"rfidest/internal/xrand"
)

// Round is one monitoring round's population, as a window over the
// universe.
type Round struct {
	Start int // first universe index present
	N     int // population size
}

// End returns one past the last universe index present.
func (r Round) End() int { return r.Start + r.N }

// Timeline is a sequence of rounds over one universe.
type Timeline struct {
	UniverseSeed uint64
	Rounds       []Round
}

// Departures returns how many tags left between rounds i-1 and i.
func (t *Timeline) Departures(i int) int {
	if i <= 0 || i >= len(t.Rounds) {
		return 0
	}
	return t.Rounds[i].Start - t.Rounds[i-1].Start
}

// Arrivals returns how many tags arrived between rounds i-1 and i.
func (t *Timeline) Arrivals(i int) int {
	if i <= 0 || i >= len(t.Rounds) {
		return 0
	}
	return t.Rounds[i].End() - t.Rounds[i-1].End()
}

// Drift generates a timeline in which, each round, a Binomial(N,
// departRate) batch departs and a Binomial(N, arriveRate) batch arrives.
// With arriveRate == departRate the size performs a mean-preserving random
// walk; unequal rates trend it. Rates must lie in [0, 1); n0 and rounds
// must be positive.
func Drift(rounds, n0 int, arriveRate, departRate float64, seed uint64) (*Timeline, error) {
	if rounds <= 0 || n0 <= 0 {
		return nil, errors.New("workload: rounds and n0 must be positive")
	}
	if arriveRate < 0 || arriveRate >= 1 || departRate < 0 || departRate >= 1 {
		return nil, errors.New("workload: rates must be in [0, 1)")
	}
	rng := xrand.NewStream(seed, 0xd21f7)
	t := &Timeline{UniverseSeed: seed}
	cur := Round{Start: 0, N: n0}
	t.Rounds = append(t.Rounds, cur)
	for i := 1; i < rounds; i++ {
		departs := rng.Binomial(cur.N, departRate)
		arrives := rng.Binomial(cur.N, arriveRate)
		cur = Round{Start: cur.Start + departs, N: cur.N - departs + arrives}
		if cur.N < 1 {
			cur.N = 1
		}
		t.Rounds = append(t.Rounds, cur)
	}
	return t, nil
}
