package core

import (
	"errors"
	"fmt"

	"rfidest/internal/bitset"
	"rfidest/internal/channel"
	"rfidest/internal/timing"
)

// Snapshot is one Bloom-filter observation of a tag population taken with
// pinned randomness: the frame seed, persistence numerator and geometry
// are recorded so a later snapshot of a (possibly changed) population can
// be taken under identical tag-side behaviour. Two such snapshots support
// set-level estimation — union, intersection, arrivals, departures —
// because a tag present in both rounds selects the same slots and makes
// the same persistence decisions in both.
//
// This is the natural incremental extension of BFCE (anonymous tracking in
// the spirit of EZB [18], built on BFCE's constant-time frame): a reader
// that archives one 8192-bit vector per round can answer "how many tags
// arrived/left since round t" for any past t, in zero extra air time.
type Snapshot struct {
	Idle *bitset.Set // bit i set ⟺ slot i was idle (B(i) = 1)
	W    int         // vector length
	K    int         // hashes per tag
	Pn   int         // persistence numerator
	Den  int         // persistence denominator
	Seed uint64      // frame seed (pins hashes and persistence decisions)
	Cost timing.Cost
}

// P returns the snapshot's persistence probability.
func (s *Snapshot) P() float64 { return float64(s.Pn) / float64(s.Den) }

// Rho returns the idle fraction of the snapshot.
func (s *Snapshot) Rho() float64 { return s.Idle.Fraction() }

// Cardinality returns the snapshot's own cardinality estimate (Theorem 2).
func (s *Snapshot) Cardinality() float64 {
	rho, _ := clampRho(s.Rho(), s.W)
	return EstimateFromRho(rho, s.K, s.P(), s.W)
}

// Differ takes and compares pinned snapshots. Construct with NewDiffer;
// the zero value is not usable.
type Differ struct {
	cfg  Config
	pn   int
	seed uint64
}

// NewDiffer prepares a snapshot taker with the given configuration. The
// persistence numerator pn must suit the largest population that will be
// snapshotted (pick it with OptimalPn or FallbackPn for the expected
// scale); seed pins the tag-side randomness across all snapshots taken by
// this Differ.
//
// Snapshots must be taken over per-tag engines (channel.TagEngine, or
// MergedEngine over them): a tag's behaviour is then a pure function of
// (tag, seed), so a tag shared between two rounds replays identically and
// the set algebra below is exact. Synthetic engines (channel.BallsEngine)
// re-sample every frame and cannot pin shared tags — Union over such
// snapshots treats the populations as disjoint.
func NewDiffer(cfg Config, pn int, seed uint64) (*Differ, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if pn < 1 || pn >= PDenom {
		return nil, fmt.Errorf("core: pn %d out of [1, %d)", pn, PDenom)
	}
	return &Differ{cfg: cfg, pn: pn, seed: seed}, nil
}

// Take records one snapshot of the population behind the session. The
// frame uses the Differ's pinned seed, so repeated snapshots are
// comparable slot-by-slot.
func (d *Differ) Take(r *channel.Reader) (*Snapshot, error) {
	if r == nil {
		return nil, errors.New("core: nil session")
	}
	start := r.Cost()
	r.BroadcastParams(d.cfg.K*timing.SeedBits + timing.PnBits)
	vec := r.ExecuteFrame(channel.FrameRequest{
		W:    d.cfg.W,
		K:    d.cfg.K,
		P:    float64(d.pn) / float64(PDenom),
		Seed: d.seed,
	})
	return &Snapshot{
		Idle: vec.IdleSet(), // B(i) = 1 ⟺ idle: the complement, one NOT per word
		W:    d.cfg.W,
		K:    d.cfg.K,
		Pn:   d.pn,
		Den:  PDenom,
		Seed: d.seed,
		Cost: r.Cost().Sub(start),
	}, nil
}

// compatible reports whether two snapshots can be compared slot-by-slot.
func compatible(a, b *Snapshot) error {
	switch {
	case a == nil || b == nil:
		return errors.New("core: nil snapshot")
	case a.W != b.W || a.K != b.K:
		return errors.New("core: snapshot geometries differ")
	case a.Pn != b.Pn || a.Den != b.Den:
		return errors.New("core: snapshot persistence differs")
	case a.Seed != b.Seed:
		return errors.New("core: snapshot seeds differ (tag behaviour not pinned)")
	case a.Idle == nil || b.Idle == nil || a.Idle.Len() != b.Idle.Len():
		return errors.New("core: snapshot lengths differ")
	}
	return nil
}

// Union estimates |A ∪ B| from two pinned snapshots: a slot is idle under
// the union exactly when it is idle in both snapshots (a shared tag
// occupies the same slots in both), so the AND of the idle vectors is the
// union population's Bloom vector and Theorem 2 applies to it directly.
func Union(a, b *Snapshot) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	bothIdle := a.Idle.AndCount(b.Idle)
	rho, _ := clampRho(float64(bothIdle)/float64(a.Idle.Len()), a.W)
	return EstimateFromRho(rho, a.K, a.P(), a.W), nil
}

// Intersection estimates |A ∩ B| by inclusion–exclusion over the
// snapshots' own cardinalities and the union estimate. Its variance is the
// sum of the three estimators' variances, so it is noisier than Union —
// appropriate for moderate overlaps, not for detecting a handful of
// shared tags.
func Intersection(a, b *Snapshot) (float64, error) {
	u, err := Union(a, b)
	if err != nil {
		return 0, err
	}
	inter := a.Cardinality() + b.Cardinality() - u
	if inter < 0 {
		inter = 0
	}
	return inter, nil
}

// Departures estimates |A \ B| — tags present in snapshot a but gone by
// snapshot b (e.g. shipped stock between two monitoring rounds):
// |A \ B| = |A ∪ B| − |B|.
func Departures(a, b *Snapshot) (float64, error) {
	u, err := Union(a, b)
	if err != nil {
		return 0, err
	}
	dep := u - b.Cardinality()
	if dep < 0 {
		dep = 0
	}
	return dep, nil
}

// Arrivals estimates |B \ A| — tags present in snapshot b that were not in
// snapshot a: |B \ A| = |A ∪ B| − |A|.
func Arrivals(a, b *Snapshot) (float64, error) {
	u, err := Union(a, b)
	if err != nil {
		return 0, err
	}
	arr := u - a.Cardinality()
	if arr < 0 {
		arr = 0
	}
	return arr, nil
}
