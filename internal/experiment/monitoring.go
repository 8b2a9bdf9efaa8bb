package experiment

import (
	"fmt"

	"rfidest/internal/channel"
	"rfidest/internal/core"
	"rfidest/internal/stats"
	"rfidest/internal/tags"
	"rfidest/internal/workload"
	"rfidest/internal/xrand"
)

// windowSession builds a tag-level session over universe window
// [start, start+n) so consecutive rounds share unmoved tags.
func windowSession(o Options, tl *workload.Timeline, round int, salt uint64) *channel.Reader {
	r := tl.Rounds[round]
	universe := tags.Generate(r.End(), tags.T1, xrand.Combine(o.Seed, tl.UniverseSeed))
	pop := &tags.Population{Tags: universe.Tags[r.Start:r.End()], Dist: universe.Dist, Seed: universe.Seed}
	return channel.NewReader(channel.NewTagEngine(pop, channel.IdealRN),
		xrand.Combine(o.Seed, tl.UniverseSeed, uint64(round), salt))
}

// Monitoring runs the incremental-monitoring extension over a drifting
// deployment: a warm-started BFCE monitor (rough phase skipped on 3 of
// every 4 rounds) tracks the cardinality while pinned differential
// snapshots report per-round arrivals and departures — all from
// constant-time frames. Columns compare against the workload's ground
// truth.
func Monitoring(o Options) *Table {
	t := NewTable("Extension — monitoring a drifting deployment (warm-started BFCE + differential snapshots)",
		"round", "true n", "monitor n̂", "acc", "slots",
		"true dep", "est dep", "true arr", "est arr")
	tl, err := workload.Drift(12, 150000, 0.06, 0.06, xrand.Combine(o.Seed, 0xd1))
	if err != nil {
		panic(err) // unreachable: parameters are static and valid
	}

	mon, err := core.NewMonitor(core.Config{})
	if err != nil {
		panic(err) // unreachable: default config is valid
	}
	mon.FastRounds = 3

	cfg := core.DefaultConfig()
	pn, ok := core.OptimalPn(150000, cfg.K, cfg.W, core.PDenom, cfg.Epsilon, cfg.Delta)
	if !ok {
		pn = core.FallbackPn(150000, cfg.K, cfg.W, core.PDenom)
	}
	differ, err := core.NewDiffer(cfg, pn, xrand.Combine(o.Seed, 0xd1ff))
	if err != nil {
		panic(err) // unreachable: pn is in range by construction
	}

	var prev *core.Snapshot
	for round := range tl.Rounds {
		n := tl.Rounds[round].N

		res, err := mon.Estimate(windowSession(o, tl, round, 1))
		if err != nil {
			panic(err) // unreachable: session is non-nil by construction
		}

		snap, err := differ.Take(windowSession(o, tl, round, 2))
		if err != nil {
			panic(err) // unreachable: session is non-nil by construction
		}
		estDep, estArr := "-", "-"
		if prev != nil {
			dep, err := core.Departures(prev, snap)
			if err != nil {
				panic(err) // unreachable: snapshots share the differ's pinning
			}
			arr, err := core.Arrivals(prev, snap)
			if err != nil {
				panic(err) // unreachable: snapshots share the differ's pinning
			}
			estDep = fmt.Sprintf("%.0f", dep)
			estArr = fmt.Sprintf("%.0f", arr)
		}
		prev = snap

		t.Addf(round, n, res.Estimate, stats.RelError(res.Estimate, float64(n)),
			res.Cost.TagSlots, tl.Departures(round), estDep, tl.Arrivals(round), estArr)
	}
	t.Note = "monitor rounds with slots=8192 skipped the probe and rough phases (warm start); snapshots add 8192 slots each"
	return t
}
