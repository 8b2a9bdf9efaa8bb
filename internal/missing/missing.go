// Package missing implements missing-tag detection over the bit-slot
// channel: given the reader's expected inventory (the back-end server of
// §III-A "stores the information of tags", so the reader knows every
// expected tagID and its prestored RN), determine how many — and which —
// expected tags are absent, without identifying anyone.
//
// The mechanism inverts BFCE's: because the reader knows the expected set,
// it can precompute the exact slot each expected tag selects under a
// broadcast seed (channel.TagHash — the same computation the tags run).
// Tags respond deterministically (persistence 1, one hash). Then:
//
//   - a slot expected to hold exactly one tag (a "singleton slot") that is
//     observed idle convicts that tag: it is missing, with certainty under
//     the perfect-channel assumption;
//   - the fraction of idle singleton slots estimates the overall missing
//     fraction (each expected tag is singleton with the same probability,
//     independent of whether it is missing);
//   - fresh seeds re-partition the expected set each round, so repeated
//     rounds drive per-tag singleton coverage toward 1 and identify
//     essentially every missing tag.
//
// Caveat (standard in this literature): alien tags — present but not on
// the expected list — can occupy an expected singleton slot and mask a
// missing tag. The detector never falsely convicts under a perfect
// channel; with channel noise, false-idle errors do convict present tags,
// which the noise test quantifies.
package missing

import (
	"errors"
	"sort"

	"rfidest/internal/channel"
	"rfidest/internal/tags"
	"rfidest/internal/timing"
)

// Config parameterizes detection. The frame size scales with the
// inventory (see frameSize).
type Config struct {
	// Rounds is the number of frames with fresh seeds (default 8).
	Rounds int
	// Mode must match the engine's tag-side hash mode (default IdealRN).
	Mode channel.HashMode
}

func (c Config) normalize() (Config, error) {
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.Rounds < 1 {
		return c, errors.New("missing: Rounds must be positive")
	}
	return c, nil
}

// Result reports one detection run.
type Result struct {
	Expected      int      // size of the expected inventory
	MissingIDs    []uint64 // tagIDs convicted by an idle singleton slot
	EstimateCount float64  // estimated number of missing tags
	Coverage      float64  // fraction of expected tags that were singleton in >= 1 round
	Slots         int      // bit-slots sensed
	Cost          timing.Cost
	Seconds       float64
}

// Detect runs the protocol over session r against the expected inventory.
// The engine behind r holds the tags actually present.
func Detect(r *channel.Reader, expected []tags.Tag, cfg Config) (Result, error) {
	if r == nil {
		return Result{}, errors.New("missing: nil session")
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return Result{}, err
	}
	res := Result{Expected: len(expected)}
	if len(expected) == 0 {
		return res, nil
	}
	w := frameSize(len(expected))
	start := r.Cost()

	convicted := make(map[uint64]bool)
	covered := make([]bool, len(expected)) //lint:allow boolframe per-tag coverage flags, not a frame buffer
	var idleSingletons, totalSingletons int

	slotOf := make([]int, len(expected))
	occupancy := make([]int, w)
	for round := 0; round < cfg.Rounds; round++ {
		req := channel.FrameRequest{W: w, K: 1, P: 1, Seed: r.NextSeed()}
		r.BroadcastParams(timing.SeedBits + timing.PnBits)

		// Reader-side precomputation of every expected tag's slot, with
		// the frame's tag hash prepared once.
		clear(occupancy)
		h := channel.PrepareTagHash(cfg.Mode, req)
		for i := range expected {
			s := h.Slot(&expected[i], 0)
			slotOf[i] = s
			occupancy[s]++
		}

		vec := r.ExecuteFrame(req)
		res.Slots += w

		for i, tag := range expected {
			s := slotOf[i]
			if occupancy[s] != 1 {
				continue // shared slot: individually uninformative
			}
			covered[i] = true
			totalSingletons++
			if !vec.Get(s) {
				idleSingletons++
				convicted[tag.ID] = true
			}
		}
	}

	for _, id := range sortedIDs(convicted) {
		res.MissingIDs = append(res.MissingIDs, id)
	}
	if totalSingletons > 0 {
		res.EstimateCount = float64(idleSingletons) / float64(totalSingletons) * float64(len(expected))
	}
	coveredCount := 0
	for _, c := range covered {
		if c {
			coveredCount++
		}
	}
	res.Coverage = float64(coveredCount) / float64(len(expected))
	res.Cost = r.Cost().Sub(start)
	res.Seconds = res.Cost.Seconds(r.Profile)
	return res, nil
}

// frameSize is the frame for an inventory of n tags: the smallest power of
// two ≥ 2·n (at least 8192), which puts per-round singleton coverage at
// e^{-n/w} ≥ 0.6 so eight rounds check essentially every tag.
func frameSize(n int) int {
	w := 8192
	for w < 2*n {
		w <<= 1
	}
	return w
}

// sortedIDs returns the map's keys in ascending order (deterministic
// output regardless of map iteration).
func sortedIDs(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
