package experiment

import (
	"fmt"

	"rfidest/internal/channel"
	"rfidest/internal/inventory"
	"rfidest/internal/missing"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// MissingTags sweeps the round budget of the missing-tag detector over a
// 20k-tag inventory with 2% of the tags absent: identification coverage
// climbs geometrically with rounds while the air-time cost stays a small
// fraction of a full inventory's.
func MissingTags(o Options) *Table {
	t := NewTable("Extension — missing-tag detection vs round budget (n=20000, 400 missing)",
		"rounds", "identified", "estimate", "coverage", "air s", "vs inventory")
	const n, gone = 20000, 400
	universe := tags.Generate(n, tags.T1, xrand.Combine(o.Seed, 0x3155))
	present := &tags.Population{
		Tags: append(append([]tags.Tag{}, universe.Tags[:6000]...), universe.Tags[6000+gone:]...),
		Dist: universe.Dist,
		Seed: universe.Seed,
	}

	inv, err := inventory.Run(len(present.Tags), xrand.Combine(o.Seed, 0x3156))
	if err != nil {
		panic(err) // unreachable: the population is never negative
	}

	for _, rounds := range []int{1, 2, 4, 8, 16} {
		r := channel.NewReader(channel.NewTagEngine(present, channel.IdealRN),
			xrand.Combine(o.Seed, 0x3157, uint64(rounds)))
		res, err := missing.Detect(r, universe.Tags, missing.Config{Rounds: rounds})
		if err != nil {
			panic(err) // unreachable: session is non-nil by construction
		}
		t.Addf(rounds, len(res.MissingIDs), res.EstimateCount, res.Coverage,
			res.Seconds, fmt.Sprintf("%.1f%%", 100*res.Seconds/inv.Seconds))
	}
	t.Note = fmt.Sprintf("full inventory of the %d present tags: %.0f s; convictions are exact (no false accusations under a perfect channel)",
		len(present.Tags), inv.Seconds)
	return t
}
