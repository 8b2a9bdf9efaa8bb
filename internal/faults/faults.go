// Package faults layers deterministic, seeded fault injectors on a
// channel.Engine. The paper assumes a perfect channel (§III-A); this
// package is the adversarial half of that ablation — four reader-side
// failure modes the literature observes in dense deployments, composed
// behind the same Engine interface the estimators already speak:
//
//   - burst noise: a Gilbert–Elliott two-state Markov channel flips
//     observed slots, generalizing the i.i.d. NoisyEngine (errors cluster
//     in bad states instead of arriving independently);
//   - slot erasure: a busy slot's backscatter is lost entirely and reads
//     idle (the asymmetric error a weak tag signal produces);
//   - truncation: a frame's observation tail is lost to desynchronization
//     and reads idle from the cut point on;
//   - stalls: the reader stalls mid-frame (retransmission, recovery) and
//     burns extra air time that the session clock is charged for through
//     the channel.Staller drain.
//
// Everything is deterministic: each injector draws from its own
// xrand stream derived from the engine seed, so equal (plan, seed) pairs
// replay identical fault schedules regardless of what other sessions are
// in flight — the property the fleet acceptance tests pin. A zero Plan
// injects nothing, and the wrapper is not installed at all in that case,
// so the fault machinery is provably passive by default.
package faults

import (
	"fmt"
	"math/bits"

	"rfidest/internal/channel"
	"rfidest/internal/obs"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
	"rfidest/internal/xrand"
)

// Plan configures the injectors. The zero value injects nothing.
type Plan struct {
	// Gilbert–Elliott burst noise: the channel alternates between a good
	// and a bad state per observed slot. BurstFlipGood/Bad are the per-slot
	// flip probabilities in each state; BurstPGB and BurstPBG are the
	// good→bad and bad→good transition probabilities.
	BurstFlipGood float64
	BurstFlipBad  float64
	BurstPGB      float64
	BurstPBG      float64

	// ErasureRate is the per-busy-slot probability the backscatter is lost
	// and the slot reads idle.
	ErasureRate float64

	// TruncRate is the per-frame probability the observation desynchronizes;
	// a truncated frame loses its trailing TruncTail fraction (the tail
	// reads idle).
	TruncRate float64
	TruncTail float64

	// StallRate is the per-engine-call probability the reader stalls;
	// each stall charges StallSlots extra slot-times (plus one recovery
	// interval) to the session clock.
	StallRate  float64
	StallSlots int
}

// Enabled reports whether the plan injects anything. A disabled plan's
// engine wrapper is never installed, keeping the default path untouched.
func (p Plan) Enabled() bool {
	return p.BurstFlipGood > 0 || p.BurstFlipBad > 0 ||
		p.ErasureRate > 0 || p.TruncRate > 0 || p.StallRate > 0
}

// Validate rejects degenerate plans. All probabilities run through
// stats.InClosedUnitInterval, so NaN — which passes a negated range check —
// is rejected along with ±Inf and out-of-range values.
func (p Plan) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"BurstFlipGood", p.BurstFlipGood},
		{"BurstFlipBad", p.BurstFlipBad},
		{"BurstPGB", p.BurstPGB},
		{"BurstPBG", p.BurstPBG},
		{"ErasureRate", p.ErasureRate},
		{"TruncRate", p.TruncRate},
		{"TruncTail", p.TruncTail},
		{"StallRate", p.StallRate},
	}
	for _, f := range probs {
		if !stats.InClosedUnitInterval(f.v) {
			return fmt.Errorf("faults: %s = %v outside [0, 1]", f.name, f.v)
		}
	}
	if p.StallSlots < 0 {
		return fmt.Errorf("faults: StallSlots = %d negative", p.StallSlots)
	}
	if p.StallRate > 0 && p.StallSlots == 0 {
		return fmt.Errorf("faults: StallRate %v with zero StallSlots", p.StallRate)
	}
	if (p.BurstFlipGood > 0 || p.BurstFlipBad > 0) && p.BurstPBG <= 0 && p.BurstPGB > 0 {
		return fmt.Errorf("faults: burst chain can enter the bad state but never leave it (BurstPBG = %v)", p.BurstPBG)
	}
	return nil
}

// Severity is the one-knob plan used by the CLIs and benches: rate in
// [0, 1] scales every injector together. Severity(0) is the zero Plan.
func Severity(rate float64) Plan {
	if !stats.InClosedUnitInterval(rate) {
		panic(fmt.Sprintf("faults: severity %v outside [0, 1]", rate))
	}
	if rate == 0 { //lint:allow floatcmp exact zero-value check for the disabled knob; no arithmetic feeds it
		return Plan{}
	}
	return Plan{
		BurstFlipGood: 0.001 * rate,
		BurstFlipBad:  0.25 * rate,
		BurstPGB:      0.02 * rate,
		BurstPBG:      0.2,
		ErasureRate:   0.05 * rate,
		TruncRate:     0.1 * rate,
		TruncTail:     0.25,
		StallRate:     0.1 * rate,
		StallSlots:    64,
	}
}

// Stats counts the fault events an Engine applied. It aliases the obs
// type so injector output feeds observers without conversion.
type Stats = obs.FaultStats

// Engine wraps a channel.Engine with the plan's injectors. Like every
// engine it is single-session, single-goroutine state: the burst chain,
// the injector RNG streams and the stall ledger all advance per call.
type Engine struct {
	inner channel.Engine
	plan  Plan

	burst *xrand.Rand
	erase *xrand.Rand
	trunc *xrand.Rand
	stall *xrand.Rand

	bad     bool // Gilbert–Elliott chain state
	pending timing.Cost
	stats   Stats
}

// New wraps inner with the plan's injectors, drawing all fault randomness
// from streams derived from seed. It panics on an invalid plan, matching
// NewNoisyEngine's contract.
func New(inner channel.Engine, plan Plan, seed uint64) *Engine {
	if err := plan.Validate(); err != nil {
		panic(err.Error())
	}
	return &Engine{
		inner: inner,
		plan:  plan,
		burst: xrand.NewStream(seed, 0xb025),
		erase: xrand.NewStream(seed, 0xe2a5),
		trunc: xrand.NewStream(seed, 0x7240),
		stall: xrand.NewStream(seed, 0x57a1),
	}
}

// Size implements channel.Engine.
func (e *Engine) Size() int { return e.inner.Size() }

// CheckFrame implements channel.FrameChecker by asking the wrapped engine.
func (e *Engine) CheckFrame(req channel.FrameRequest) error {
	return channel.CheckFrame(e.inner, req)
}

// FaultStats returns the cumulative fault counters of the session.
func (e *Engine) FaultStats() Stats { return e.stats }

// TakeStall implements channel.Staller: it drains the stall cost accrued
// since the last engine call.
func (e *Engine) TakeStall() timing.Cost {
	c := e.pending
	e.pending = timing.Cost{}
	return c
}

// TagTransmissions implements channel.EnergyMeter by delegation: faults
// are reader-side phenomena; tags transmit the same either way.
func (e *Engine) TagTransmissions() int {
	if m, ok := e.inner.(channel.EnergyMeter); ok {
		return m.TagTransmissions()
	}
	return -1
}

// burstFlip advances the Gilbert–Elliott chain one slot and reports
// whether the slot's observation flips. The draw order (flip, then
// transition) is fixed and state-independent, so the stream consumption
// per slot is constant and the schedule replays exactly.
func (e *Engine) burstFlip() bool {
	p := e.plan.BurstFlipGood
	if e.bad {
		p = e.plan.BurstFlipBad
	}
	flip := e.burst.Bernoulli(p)
	if e.bad {
		if e.burst.Bernoulli(e.plan.BurstPBG) {
			e.bad = false
		}
	} else if e.burst.Bernoulli(e.plan.BurstPGB) {
		e.bad = true
	}
	return flip
}

func (e *Engine) burstEnabled() bool {
	return e.plan.BurstFlipGood > 0 || e.plan.BurstFlipBad > 0
}

// RunFrame implements channel.Engine: the inner observation passes through
// burst noise, then erasure, then truncation, and may accrue a stall. The
// injector order is fixed — it is part of the deterministic schedule.
func (e *Engine) RunFrame(req channel.FrameRequest) channel.BitVec {
	b := e.inner.RunFrame(req)
	e.stats.Frames++
	n := b.Len()

	if e.burstEnabled() {
		for wi := 0; wi*64 < n; wi++ {
			width := n - wi*64
			if width > 64 {
				width = 64
			}
			var flip uint64
			for i := 0; i < width; i++ {
				if e.burstFlip() {
					flip |= 1 << uint(i)
				}
			}
			if flip != 0 {
				b.XorWord(wi, flip)
				e.stats.BurstFlips += bits.OnesCount64(flip)
			}
		}
	}

	if e.plan.ErasureRate > 0 {
		// One draw per busy slot, in index order: a busy slot's backscatter
		// is lost with probability ErasureRate; idle slots cannot erase.
		for wi := 0; wi*64 < n; wi++ {
			word := b.Word(wi)
			if word == 0 {
				continue
			}
			var clear uint64
			for w := word; w != 0; w &= w - 1 {
				bit := w & -w
				if e.erase.Bernoulli(e.plan.ErasureRate) {
					clear |= bit
				}
			}
			if clear != 0 {
				b.XorWord(wi, clear)
				e.stats.Erasures += bits.OnesCount64(clear)
			}
		}
	}

	if e.plan.TruncRate > 0 && e.trunc.Bernoulli(e.plan.TruncRate) {
		keep := n - int(float64(n)*e.plan.TruncTail)
		b.ClearFrom(keep)
		e.stats.Truncations++
	}

	e.maybeStall()
	return b
}

// FirstResponse implements channel.Engine. Burst flips and erasures apply
// to the scanned prefix exactly as they would in a materialized frame: a
// flipped idle slot pre-empts the true response, and a flipped or erased
// true response is missed (-1) — the scan cannot continue past a reply it
// never heard. Truncation does not apply (there is no observation tail).
func (e *Engine) FirstResponse(req channel.FrameRequest, maxScan int) int {
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	truth := e.inner.FirstResponse(req, maxScan)
	e.stats.Frames++
	limit := maxScan
	if truth >= 0 {
		limit = truth
	}
	pos := truth
	if e.burstEnabled() {
		for i := 0; i < limit; i++ {
			if e.burstFlip() {
				e.stats.BurstFlips++
				pos = i
				break
			}
		}
	}
	if pos == truth && truth >= 0 {
		missed := false
		if e.burstEnabled() && e.burstFlip() {
			e.stats.BurstFlips++
			missed = true
		}
		if !missed && e.plan.ErasureRate > 0 && e.erase.Bernoulli(e.plan.ErasureRate) {
			e.stats.Erasures++
			missed = true
		}
		if missed {
			pos = -1
		}
	}
	e.maybeStall()
	return pos
}

// maybeStall draws one stall decision for the completed engine call and
// accrues its recovery cost for the Reader to drain.
func (e *Engine) maybeStall() {
	if e.plan.StallRate > 0 && e.stall.Bernoulli(e.plan.StallRate) {
		e.pending.Add(timing.Cost{TagSlots: e.plan.StallSlots, Intervals: 1})
		e.stats.Stalls++
		e.stats.StallSlots += e.plan.StallSlots
	}
}
