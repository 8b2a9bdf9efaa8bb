// Package tags models RFID tag populations.
//
// A tag carries a unique identifier (tagID) and, per BFCE §IV-E.2, a
// prestored uniformly random 32-bit number RN that the lightweight tag-side
// hash operates on. The paper's evaluation (§V-A, Fig. 6) uses three tagID
// sets drawn from different distributions over [1, 10^15]:
//
//	T1 — uniform,
//	T2 — approximately normal (a bounded bell shape),
//	T3 — normal.
//
// Estimation quality must not depend on the ID distribution; the generators
// here exist to reproduce that robustness claim. IDs within a population
// are deduplicated (every physical tag is distinct).
package tags

import (
	"fmt"

	"rfidest/internal/xrand"
)

// IDSpace is the upper bound of the tagID universe used in the paper's
// simulations (IDs are drawn from [1, 10^15]).
const IDSpace = uint64(1e15)

// Tag is one RFID tag.
type Tag struct {
	ID uint64 // unique tagID
	RN uint32 // prestored 32-bit random number (§IV-E.2)
}

// Distribution selects one of the paper's tagID distributions.
type Distribution int

const (
	// T1 draws IDs uniformly from [1, 10^15].
	T1 Distribution = iota
	// T2 draws IDs from an approximately normal (Irwin–Hall, sum of three
	// uniforms) distribution over [1, 10^15].
	T2
	// T3 draws IDs from a normal distribution centred on the middle of the
	// ID space (σ = IDSpace/8), clipped to [1, 10^15].
	T3
)

// String returns the paper's name for the distribution.
func (d Distribution) String() string {
	switch d {
	case T1:
		return "T1-uniform"
	case T2:
		return "T2-approx-normal"
	case T3:
		return "T3-normal"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Distributions lists the three paper distributions in order.
var Distributions = []Distribution{T1, T2, T3}

// Population is a set of distinct tags.
type Population struct {
	Tags []Tag
	Dist Distribution
	Seed uint64
}

// N returns the population cardinality — the ground truth every estimator
// is judged against.
func (p *Population) N() int { return len(p.Tags) }

// Generate creates a population of n distinct tags with IDs drawn from
// dist, deterministically from seed. Populations of different sizes under
// the same (dist, seed) agree on their common prefix —
// Generate(m, d, s).Tags[:k] == Generate(n, d, s).Tags[:k] for k ≤ min(m,n)
// — which lets callers model evolving deployments whose rounds share tags.
// It panics if n < 0 or if n exceeds the ID space.
func Generate(n int, dist Distribution, seed uint64) *Population {
	if n < 0 {
		panic("tags: negative population size")
	}
	if uint64(n) > IDSpace {
		panic("tags: population exceeds ID space")
	}
	rng := xrand.NewStream(seed, uint64(dist))
	pop := &Population{Tags: make([]Tag, 0, n), Dist: dist, Seed: seed}
	seen := make(map[uint64]struct{}, n)
	for len(pop.Tags) < n {
		id := drawID(rng, dist)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		pop.Tags = append(pop.Tags, Tag{ID: id, RN: rng.Uint32()})
	}
	return pop
}

// drawID draws one tagID in [1, IDSpace] from dist.
func drawID(rng *xrand.Rand, dist Distribution) uint64 {
	switch dist {
	case T1:
		return 1 + rng.Uint64n(IDSpace)
	case T2:
		// Irwin–Hall with three terms: mean 1.5, range [0, 3]; rescale to
		// the ID space. Bounded support, bell-shaped — "approximately
		// normal" as in Fig. 6(b).
		s := rng.Float64() + rng.Float64() + rng.Float64()
		id := uint64(s / 3 * float64(IDSpace))
		return clampID(id)
	case T3:
		// Normal around the centre with σ = IDSpace/8, redrawn until it
		// lands inside the space (truncated normal), as in Fig. 6(c).
		for {
			v := rng.NormMeanStd(float64(IDSpace)/2, float64(IDSpace)/8)
			if v >= 1 && v <= float64(IDSpace) {
				return uint64(v)
			}
		}
	default:
		panic(fmt.Sprintf("tags: unknown distribution %d", int(dist)))
	}
}

func clampID(id uint64) uint64 {
	if id < 1 {
		return 1
	}
	if id > IDSpace {
		return IDSpace
	}
	return id
}

// IDs returns the population's tagIDs as float64s (for histogram rendering
// of Fig. 6).
func (p *Population) IDs() []float64 {
	out := make([]float64, len(p.Tags))
	for i, t := range p.Tags {
		out[i] = float64(t.ID)
	}
	return out
}
