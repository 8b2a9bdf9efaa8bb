package rfidest

import (
	"errors"
	"fmt"

	"rfidest/internal/core"
	"rfidest/internal/inventory"
	"rfidest/internal/tags"
)

// Inventory is the outcome of a full C1G2 tag identification run — the
// exact-counting baseline estimation competes with.
type Inventory struct {
	Identified int     // tags read
	Slots      int     // ALOHA slots walked
	Rounds     int     // frames opened
	Seconds    float64 // air time under EPCglobal C1G2
	Complete   bool    // every tag was identified
}

// Inventory runs a full framed-slotted-ALOHA identification (Gen2 DFSA
// with Schoute backlog sizing) of the system's population and returns the
// exact count with its air-time cost. Use it to decide, for a given scale,
// whether counting exactly or estimating is cheaper — BFCE's constant
// 0.19 s beats inventory beyond a few dozen tags.
func (s *System) Inventory() (Inventory, error) {
	res, err := inventory.Run(s.n, s.seed^s.sessions.Add(1))
	if err != nil {
		return Inventory{}, err
	}
	return Inventory{
		Identified: res.Identified,
		Slots:      res.Slots,
		Rounds:     res.Rounds,
		Seconds:    res.Seconds,
		Complete:   res.Complete,
	}, nil
}

// SetSnapshot is a pinned Bloom-filter snapshot of a System, comparable
// with other snapshots from the same Tracker (see Tracker).
type SetSnapshot struct {
	inner *core.Snapshot
}

// Cardinality returns the snapshot's own cardinality estimate.
func (s *SetSnapshot) Cardinality() float64 { return s.inner.Cardinality() }

// Tracker takes comparable snapshots of evolving deployments and answers
// set-level questions about them: how many tags two rounds share, how many
// arrived, how many departed — each from one constant-time frame per
// round, with no tag identification at all (anonymous tracking in the
// spirit of EZB [18], built on BFCE's frame).
type Tracker struct {
	differ *core.Differ
}

// NewTracker prepares a tracker for deployments of roughly expectedN tags
// (the persistence probability is tuned once, for that scale, so every
// snapshot is comparable). All randomness is pinned by seed.
func NewTracker(expectedN int, seed uint64) (*Tracker, error) {
	if expectedN < 1 {
		return nil, errors.New("rfidest: tracker needs a positive expected scale")
	}
	cfg := core.DefaultConfig()
	pn, ok := core.OptimalPn(float64(expectedN), cfg.K, cfg.W, core.PDenom, cfg.Epsilon, cfg.Delta)
	if !ok {
		pn = core.FallbackPn(float64(expectedN), cfg.K, cfg.W, core.PDenom)
	}
	d, err := core.NewDiffer(cfg, pn, seed)
	if err != nil {
		return nil, err
	}
	return &Tracker{differ: d}, nil
}

// Snapshot records one comparable snapshot of sys. The system must be
// tag-level (not WithSynthetic): set algebra needs tags that replay
// deterministically across rounds.
func (t *Tracker) Snapshot(sys *System) (*SetSnapshot, error) {
	if sys.synthetic {
		return nil, errors.New("rfidest: tracking requires a tag-level system (synthetic engines cannot pin shared tags)")
	}
	snap, err := t.differ.Take(sys.session())
	if err != nil {
		return nil, err
	}
	return &SetSnapshot{inner: snap}, nil
}

// Union estimates the number of distinct tags seen across both snapshots.
func Union(a, b *SetSnapshot) (float64, error) {
	if a == nil || b == nil {
		return 0, errors.New("rfidest: nil snapshot")
	}
	return core.Union(a.inner, b.inner)
}

// Intersection estimates the number of tags present in both snapshots.
func Intersection(a, b *SetSnapshot) (float64, error) {
	if a == nil || b == nil {
		return 0, errors.New("rfidest: nil snapshot")
	}
	return core.Intersection(a.inner, b.inner)
}

// Arrivals estimates how many tags of snapshot b were absent from a.
func Arrivals(a, b *SetSnapshot) (float64, error) {
	if a == nil || b == nil {
		return 0, errors.New("rfidest: nil snapshot")
	}
	return core.Arrivals(a.inner, b.inner)
}

// Departures estimates how many tags of snapshot a are gone by b.
func Departures(a, b *SetSnapshot) (float64, error) {
	if a == nil || b == nil {
		return 0, errors.New("rfidest: nil snapshot")
	}
	return core.Departures(a.inner, b.inner)
}

// PopulationAt builds the tag-level System holding tags [start, start+n)
// of an underlying tag universe identified by universeSeed. Windows of the
// same universe share the tags their ranges overlap on, so consecutive
// calls model an evolving deployment (tags [0, 20k) departed, tags
// [100k, 120k) arrived, ...). It is a convenience for tracking demos and
// tests; production code would snapshot whatever real populations it has.
func PopulationAt(universeSeed uint64, start, n int) *System {
	if start < 0 || n < 0 {
		panic(fmt.Sprintf("rfidest: invalid window [%d, %d+%d)", start, start, n))
	}
	sys := NewSystem(start+n, WithSeed(universeSeed))
	sys.pop = &tags.Population{Tags: sys.pop.Tags[start:], Dist: sys.pop.Dist, Seed: sys.pop.Seed}
	sys.n = n
	return sys
}

// PopulationWithout builds the tag-level System holding tags [0, n) of the
// universe except the range [gapFrom, gapTo) — a deployment from which a
// known block of tags has been removed. Missing-tag detection demos and
// tests use it as the "present" side against the intact [0, n) inventory.
func PopulationWithout(universeSeed uint64, n, gapFrom, gapTo int) *System {
	if n < 0 || gapFrom < 0 || gapTo < gapFrom || gapTo > n {
		panic(fmt.Sprintf("rfidest: invalid gap [%d, %d) in [0, %d)", gapFrom, gapTo, n))
	}
	full := NewSystem(n, WithSeed(universeSeed))
	kept := make([]tags.Tag, 0, n-(gapTo-gapFrom))
	kept = append(kept, full.pop.Tags[:gapFrom]...)
	kept = append(kept, full.pop.Tags[gapTo:]...)
	full.pop = &tags.Population{Tags: kept, Dist: full.pop.Dist, Seed: full.pop.Seed}
	full.n = len(kept)
	return full
}
