package estimators

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"rfidest/internal/channel"
	"rfidest/internal/core"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// This file is the round-structured execution model at the estimator
// level. A Stepper is a protocol as a resumable state machine (see
// channel.Stepper for the round vocabulary); Run is the one driver loop
// every protocol executes under. Every protocol steps natively — its
// Plan/Absorb transitions reproduce the protocol's dialogue round for
// round, charged through channel.StepRound — and every Estimate method is
// the same thin wrapper around Run.

// Stepper is a resumable estimation protocol: channel.Stepper's
// Plan/Absorb round machine plus the estimator-level finishing moves.
//
// Result finalizes the run given the session cost the driver measured
// around it; it must only be called once Absorb has reported done.
// Snapshot and Restore carry the machine's full mid-run state (held
// seeds, partial observations, sub-phase progress), so a restored copy
// resumes exactly where the snapshot was taken.
type Stepper interface {
	channel.Stepper
	// Name returns the protocol's short name (as used in the paper).
	Name() string
	// Result finalizes the run: cost is the communication the driver
	// measured across the run, profile the session's timing profile.
	Result(cost timing.Cost, profile timing.Profile) Result
	// Snapshot returns an opaque copy of the machine's state.
	Snapshot() any
	// Restore overwrites the machine's state with a snapshot previously
	// taken from a Stepper of the same protocol and configuration.
	Restore(snap any) error
}

// AsStepper returns est's round machine for one run at the accuracy
// target, to be driven by Run — one execution path for every protocol.
func AsStepper(est Estimator, acc Accuracy) (Stepper, error) {
	if est == nil {
		return nil, errors.New("estimators: nil estimator")
	}
	return est.Stepper(acc)
}

// Run drives st over the session r to completion and finalizes its
// Result, measuring the run's communication cost around the drive. It is
// the thin loop behind every Estimate method; ctx, when non-nil, cancels
// between rounds (see channel.Drive).
func Run(ctx context.Context, r *channel.Reader, st Stepper) (Result, error) {
	if r == nil {
		return Result{}, errors.New("estimators: nil session")
	}
	start := r.Cost()
	if err := channel.Drive(ctx, r, st); err != nil {
		return Result{}, err
	}
	return st.Result(r.Cost().Sub(start), r.Profile), nil
}

// estimate is the body of every protocol's Estimate: a fresh round
// machine, driven over r to completion.
func estimate(est Estimator, r *channel.Reader, acc Accuracy) (Result, error) {
	if r == nil {
		return Result{}, errors.New("estimators: nil session")
	}
	st, err := est.Stepper(acc)
	if err != nil {
		return Result{}, err
	}
	return Run(nil, r, st)
}

// restore overwrites *dst with snap, which must be a Snapshot of a
// machine of dst's own type. Every machine's state is a plain value, so
// its Snapshot is a copy of itself and its Restore is this.
func restore[T any](dst *T, snap any) error {
	v, ok := snap.(T)
	if !ok {
		return fmt.Errorf("estimators: cannot restore a %T snapshot into a %T machine", snap, v)
	}
	*dst = v
	return nil
}

// ---------------------------------------------------------------------
// BFCE: wraps the core round machine.

// bfceStepper adapts the core BFCE Stepper to the comparison interface.
type bfceStepper struct {
	core *core.Stepper
}

// BFCEStepper adapts a core BFCE round machine to Stepper, for callers
// that build the machine themselves (a monitor's warm round, a run that
// keeps the machine for its diagnostics) and drive it like any protocol.
func BFCEStepper(st *core.Stepper) Stepper { return &bfceStepper{core: st} }

// Stepper implements Estimator.
func (b *BFCE) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	cfg := b.Config
	cfg.Epsilon = acc.Epsilon
	cfg.Delta = acc.Delta
	est, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return BFCEStepper(est.Stepper()), nil
}

func (s *bfceStepper) Name() string                            { return "BFCE" }
func (s *bfceStepper) Plan() channel.RoundSpec                 { return s.core.Plan() }
func (s *bfceStepper) Absorb(o channel.RoundObs) (bool, error) { return s.core.Absorb(o) }

func (s *bfceStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	res := s.core.Result()
	return Result{
		Estimate:  res.Estimate,
		Rounds:    1,
		Slots:     cost.TagSlots,
		Cost:      cost,
		Seconds:   cost.Seconds(profile),
		Guarded:   res.Feasible,
		Saturated: res.Saturated,
	}
}

func (s *bfceStepper) Snapshot() any          { return s.core.Snapshot() }
func (s *bfceStepper) Restore(snap any) error { return restore(s.core, snap) }

// ---------------------------------------------------------------------
// LOF: R rounds of geometric lottery frames, alone or as a rough phase.

const (
	// lofFrame is the lottery frame length: 32 slots express
	// cardinalities up to ~2^32.
	lofFrame = 32
	// roughRounds is the number of averaged LOF frames in a rough phase,
	// the paper's choice for ZOE's (§V-C), and LOF's own round count.
	roughRounds = 10
)

// roughLOF runs LOF's lottery frames: LOF's own machine, and the rough
// phase that EZB, FNEB, MLE, ART, ZOE and ZOE-batched (roughRounds
// rounds) and SRC (1 round) open with. An owner forwards its Plan and
// Absorb here until done, then reads n, rounds and slots.
type roughLOF struct {
	rounds int // total rounds

	round     int
	slots     int
	sumR      float64
	responded bool
}

func (s *roughLOF) done() bool { return s.round >= s.rounds }

func (s *roughLOF) Plan() channel.RoundSpec {
	return channel.RoundSpec{
		Broadcast: timing.SeedBits,
		Frame: channel.FrameRequest{
			W:    lofFrame,
			K:    1,
			P:    1,
			Dist: channel.Geometric,
		},
	}
}

func (s *roughLOF) Absorb(o channel.RoundObs) (bool, error) {
	s.slots += lofFrame
	// The observation is the number of leading busy slots (the first
	// idle position); a fully busy frame reports its length.
	first := o.Frame.FirstIdle()
	if first > 0 {
		s.responded = true
	}
	s.sumR += float64(first)
	s.round++
	return s.done(), nil
}

// estimate is LOF's n̂ = 2^{R̄}/φ, or 0 when no frame drew a response.
func (s *roughLOF) estimate() float64 {
	if !s.responded {
		return 0
	}
	return math.Exp2(s.sumR/float64(s.rounds)) / fmPhi
}

// n is the rough estimate an owner sizes its next phase from, clamped at
// 1 so an empty population still yields a finite load.
func (s *roughLOF) n() float64 { return max(s.estimate(), 1) }

// lofStepper is LOF run as a protocol of its own.
type lofStepper struct{ roughLOF }

// Stepper implements Estimator. Accuracy does not size LOF (it is a
// fixed-budget rough estimator), matching Estimate.
func (l *LOF) Stepper(Accuracy) (Stepper, error) {
	return &lofStepper{roughLOF{rounds: roughRounds}}, nil
}

func (s *lofStepper) Name() string { return "LOF" }

func (s *lofStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	return Result{Estimate: s.estimate(), Rounds: s.rounds, Slots: s.slots, Cost: cost, Seconds: cost.Seconds(profile)}
}

func (s *lofStepper) Snapshot() any          { return *s }
func (s *lofStepper) Restore(snap any) error { return restore(s, snap) }

// ---------------------------------------------------------------------
// ZOE: rough phase, then m single-slot frames.

type zoeStepper struct {
	rough roughLOF

	p    float64
	m    int
	slot int
	idle int
}

// Stepper implements Estimator. The accurate phase's slot count m depends
// on (ε, δ) alone, so it is sized up front.
func (z *ZOE) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	m, err := ZOESlots(acc)
	if err != nil {
		return nil, err
	}
	max := z.MaxSlots
	if max == 0 {
		max = 65536
	}
	if max > 0 && m > max {
		m = max
	}
	return &zoeStepper{rough: roughLOF{rounds: roughRounds}, m: m}, nil
}

func (s *zoeStepper) Name() string { return "ZOE" }

func (s *zoeStepper) Plan() channel.RoundSpec {
	if !s.rough.done() {
		return s.rough.Plan()
	}
	// One seed broadcast per slot — ZOE's defining (and costly) trait.
	return channel.RoundSpec{
		Broadcast: timing.SeedBits,
		Frame:     channel.FrameRequest{W: 1, K: 1, P: s.p},
	}
}

func (s *zoeStepper) Absorb(o channel.RoundObs) (bool, error) {
	if !s.rough.done() {
		done, err := s.rough.Absorb(o)
		if done {
			s.p = min(lambdaStarZOE/s.rough.n(), 1)
		}
		return false, err
	}
	if !o.Frame.Get(0) {
		s.idle++
	}
	s.slot++
	return s.slot >= s.m, nil
}

func (s *zoeStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	rho := clampRho(float64(s.idle)/float64(s.m), s.m)
	return Result{
		Estimate: -math.Log(rho) / s.p,
		Rounds:   1 + s.rough.rounds,
		Slots:    s.m + s.rough.slots,
		Guarded:  true,
		Cost:     cost,
		Seconds:  cost.Seconds(profile),
	}
}

func (s *zoeStepper) Snapshot() any          { return *s }
func (s *zoeStepper) Restore(snap any) error { return restore(s, snap) }

// ---------------------------------------------------------------------
// SRC: one-round rough phase, then median-combined zero-estimator rounds.

type srcStepper struct {
	rough roughLOF

	l, rounds int
	p         float64
	round     int
	slots     int
	estimates []float64
}

// Stepper implements Estimator.
func (src *SRC) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	l, err := SRCFrameSize(acc.Epsilon)
	if err != nil {
		return nil, err
	}
	return &srcStepper{rough: roughLOF{rounds: 1}, l: l, rounds: SRCRounds(acc.Delta)}, nil
}

func (s *srcStepper) Name() string { return "SRC" }

func (s *srcStepper) Plan() channel.RoundSpec {
	if !s.rough.done() {
		return s.rough.Plan()
	}
	return channel.RoundSpec{
		Broadcast: timing.SeedBits + timing.PnBits,
		Frame:     channel.FrameRequest{W: s.l, K: 1, P: s.p},
	}
}

func (s *srcStepper) Absorb(o channel.RoundObs) (bool, error) {
	if !s.rough.done() {
		done, err := s.rough.Absorb(o)
		if done {
			s.p = min(lambdaStarZOE*float64(s.l)/s.rough.n(), 1)
			s.estimates = make([]float64, 0, s.rounds)
		}
		return false, err
	}
	s.slots += s.l
	rho := clampRho(o.Frame.RhoIdle(), s.l)
	s.estimates = append(s.estimates, zeroEstimate(rho, s.p, s.l))
	s.round++
	return s.round >= s.rounds, nil
}

func (s *srcStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	return Result{
		Estimate: stats.Median(s.estimates),
		Rounds:   s.rounds + s.rough.rounds,
		Slots:    s.slots + s.rough.slots,
		Guarded:  true,
		Cost:     cost,
		Seconds:  cost.Seconds(profile),
	}
}

// Snapshot copies the estimates slice, so the snapshot and the running
// machine never share a backing array.
func (s *srcStepper) Snapshot() any {
	c := *s
	c.estimates = slices.Clone(s.estimates)
	return c
}

func (s *srcStepper) Restore(snap any) error {
	if err := restore(s, snap); err != nil {
		return err
	}
	s.estimates = slices.Clone(s.estimates)
	return nil
}
