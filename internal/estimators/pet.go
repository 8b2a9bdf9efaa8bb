package estimators

import (
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// PET is the Probabilistic Estimating Tree of Zheng and Li [13]: tags hash
// geometrically onto the leaves of a virtual binary tree and the reader
// locates the boundary between the loaded and empty region with a binary
// search, touching only O(log log n) slots per round instead of scanning a
// frame.
//
// Per round, the reader binary-searches for the first idle position of the
// geometric lottery pattern: each probe broadcasts the probed position and
// senses one bit-slot. The located position F estimates log2(φ·n) exactly
// as in LOF, but at ⌈log2 W⌉ probed slots per round. (The lottery pattern
// is monotone only in expectation; occasional non-monotone frames add
// variance, which the round budget absorbs — PET's tree walk has the same
// property.) Rounds are sized from the Flajolet–Martin variance: one round
// of first-idle position has σ(F) ≈ 1.12 bits, so σ(n̂)/n ≈ ln2·1.12 and
// R = ⌈(1.12·ln2·d/ε)²⌉.
type PET struct {
	// Depth is the tree depth / lottery range (default 32, enough for
	// cardinalities to ~2^32).
	Depth int
	// MaxRounds caps the averaging (default 4096).
	MaxRounds int
}

// NewPET returns PET with default settings.
func NewPET() *PET { return &PET{} }

// Name implements Estimator.
func (p *PET) Name() string { return "PET" }

// fmSigma is the standard deviation (in bit positions) of one
// first-idle observation of a geometric lottery pattern.
const fmSigma = 1.12

// petBinaryBias is the mean excess (in bit positions) of the
// binary-searched first-idle position over the linear-scan position: the
// search can jump across an early idle slot when the probed midpoint is
// busy, so it converges to a later boundary. Calibrated by simulation over
// n ∈ [10³, 5·10⁶] (20k frames per point: bias 0.59–0.72 bits, mean 0.67).
const petBinaryBias = 0.673

// Estimate implements Estimator.
func (p *PET) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(p, r, acc)
}

// Stepper implements Estimator.
func (p *PET) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	depth := p.Depth
	if depth <= 0 {
		depth = 32
	}
	maxRounds := p.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4096
	}
	d := stats.D(acc.Delta)
	rel := fmSigma * math.Ln2
	return &petStepper{
		depth:   depth,
		posBits: bitsFor(depth),
		rounds:  sizeRounds((rel*d/acc.Epsilon)*(rel*d/acc.Epsilon), maxRounds),
	}, nil
}

// petStepper alternates two kinds of round. A silent lottery frame draws
// the tags' pattern without sensing it, and its Absorb runs the binary
// search over the pattern; then one listen round per visited position
// announces the position and senses its one bit-slot. PET's whole point
// is that only these probes cross the air interface.
type petStepper struct {
	depth, posBits, rounds int

	round     int
	probes    int // listen rounds left in the current round's search
	slots     int
	sumF      float64
	responded bool
}

func (s *petStepper) Name() string { return "PET" }

func (s *petStepper) Plan() channel.RoundSpec {
	if s.probes > 0 {
		return channel.RoundSpec{Kind: channel.ListenRound, Broadcast: s.posBits, Listen: 1}
	}
	// One seed broadcast arms the round.
	return channel.RoundSpec{
		Kind:      channel.SilentRound,
		Broadcast: timing.SeedBits,
		Frame:     channel.FrameRequest{W: s.depth, K: 1, P: 1, Dist: channel.Geometric},
	}
}

func (s *petStepper) Absorb(o channel.RoundObs) (bool, error) {
	if s.probes > 0 {
		s.probes--
		s.slots++
		return s.probes == 0 && s.round >= s.rounds, nil
	}
	// Binary search for the first idle position of the lottery pattern.
	lo, hi := 0, s.depth
	for lo < hi {
		mid := (lo + hi) / 2
		s.probes++
		if o.Frame.Get(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		s.responded = true
	}
	s.sumF += float64(lo)
	s.round++
	return false, nil
}

func (s *petStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	res := Result{Rounds: s.rounds, Slots: s.slots, Guarded: true, Cost: cost, Seconds: cost.Seconds(profile)}
	if s.responded {
		res.Estimate = math.Exp2(s.sumF/float64(s.rounds)-petBinaryBias) / fmPhi
	}
	return res
}

func (s *petStepper) Snapshot() any          { return *s }
func (s *petStepper) Restore(snap any) error { return restore(s, snap) }

// bitsFor returns the bits needed to address positions in [0, depth).
func bitsFor(depth int) int {
	b := 0
	for v := depth - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
