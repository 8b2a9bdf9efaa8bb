package channel

import (
	"rfidest/internal/stats"
	"rfidest/internal/xrand"
)

// NoisyEngine wraps an Engine with a symmetric-error channel model: each
// observed slot is independently misread by the reader. The paper assumes
// a perfect channel (§III-A); this wrapper powers the noise ablation that
// probes how much that assumption carries. Its noise RNG advances per
// observed slot, so — like the engines it wraps — it is single-session,
// single-goroutine state.
type NoisyEngine struct {
	Inner Engine
	// FalseBusy is the probability an idle slot is sensed busy (ambient
	// interference).
	FalseBusy float64
	// FalseIdle is the probability a busy slot is sensed idle (missed
	// backscatter).
	FalseIdle float64
	rng       *xrand.Rand
}

// NewNoisyEngine wraps inner with the given per-slot error rates. The
// range check runs through stats.InClosedUnitInterval so NaN rates are
// rejected too (a NaN fails `< 0 || > 1` because NaN comparisons are
// always false, and a NaN rate would silently disable the noise draw).
func NewNoisyEngine(inner Engine, falseBusy, falseIdle float64, seed uint64) *NoisyEngine {
	if !stats.InClosedUnitInterval(falseBusy) || !stats.InClosedUnitInterval(falseIdle) {
		panic("channel: error rates out of [0,1]")
	}
	return &NoisyEngine{
		Inner:     inner,
		FalseBusy: falseBusy,
		FalseIdle: falseIdle,
		rng:       xrand.NewStream(seed, 0x4015e),
	}
}

// Size implements Engine.
func (e *NoisyEngine) Size() int { return e.Inner.Size() }

// CheckFrame implements FrameChecker by asking the wrapped engine.
func (e *NoisyEngine) CheckFrame(req FrameRequest) error { return CheckFrame(e.Inner, req) }

// RunFrame implements Engine, flipping each observed slot with the
// configured error rates. Flip decisions are drawn per slot in index order
// (one Bernoulli per slot, keeping the noise stream bit-compatible with the
// reference implementation) and applied as one XOR mask per word.
func (e *NoisyEngine) RunFrame(req FrameRequest) BitVec {
	b := e.Inner.RunFrame(req)
	n := b.Len()
	for wi := 0; wi*64 < n; wi++ {
		word := b.bits.Word(wi)
		width := n - wi*64
		if width > 64 {
			width = 64
		}
		var flip uint64
		for i := 0; i < width; i++ {
			if word>>uint(i)&1 == 1 {
				if e.rng.Bernoulli(e.FalseIdle) {
					flip |= 1 << uint(i)
				}
			} else if e.rng.Bernoulli(e.FalseBusy) {
				flip |= 1 << uint(i)
			}
		}
		if flip != 0 {
			b.bits.XorWord(wi, flip)
		}
	}
	return b
}

// FirstResponse implements Engine. A false-busy slot can pre-empt the true
// first response; a false-idle can hide it (in which case the scan would in
// reality continue — we conservatively fall through to the next true
// response only when the inner engine can report it, i.e. never, so a
// masked response yields the false-busy candidate or -1).
func (e *NoisyEngine) FirstResponse(req FrameRequest, maxScan int) int {
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	truth := e.Inner.FirstResponse(req, maxScan)
	limit := maxScan
	if truth >= 0 {
		limit = truth
	}
	// First false-busy among the idle prefix of length `limit`.
	if e.FalseBusy > 0 {
		g := e.rng.Geometric(e.FalseBusy)
		if g < limit {
			return g
		}
	}
	if truth >= 0 && e.rng.Bernoulli(e.FalseIdle) {
		return -1 // the true first response was missed
	}
	return truth
}
