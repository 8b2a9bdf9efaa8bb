package estimators

import (
	"errors"
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/core"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// This file is the round-structured execution model at the estimator
// level. A Stepper is a protocol as a round state machine (see
// channel.Stepper for the round vocabulary); Estimate drives one over a
// hand-built session, and the root package's RunSession drives one under
// its deadline, retry and observer. Every protocol steps natively — its
// Plan/Absorb transitions reproduce the protocol's dialogue round for
// round, charged through channel.StepRound.

// Stepper is an estimation protocol as a round machine: channel.Stepper's
// Plan/Absorb rounds plus the estimator-level Result.
//
// Result finalizes the run given the session cost the driver measured
// around it; it must only be called once Absorb has reported done.
type Stepper interface {
	channel.Stepper
	// Result finalizes the run: cost is the communication the driver
	// measured across the run, profile the session's timing profile.
	Result(cost timing.Cost, profile timing.Profile) Result
}

// AsStepper returns est's round machine for one run at the accuracy
// target — one execution path for every protocol.
func AsStepper(est Estimator, acc Accuracy) (Stepper, error) {
	if est == nil {
		return nil, errors.New("estimators: nil estimator")
	}
	return est.Stepper(acc)
}

// Estimate runs est over the session r to the accuracy target: a fresh
// round machine, driven to completion, finalized with the communication
// cost measured around the drive. It is the entry point for hand-built
// sessions; the root package's RunSession drives registry protocols
// itself.
func Estimate(est Estimator, r *channel.Reader, acc Accuracy) (Result, error) {
	if r == nil {
		return Result{}, errors.New("estimators: nil session")
	}
	st, err := AsStepper(est, acc)
	if err != nil {
		return Result{}, err
	}
	start := r.Cost()
	if err := channel.Drive(nil, r, st); err != nil {
		return Result{}, err
	}
	return st.Result(r.Cost().Sub(start), r.Profile), nil
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

// Stepper implements Estimator: a paper-default BFCE machine at the
// accuracy target.
func (*BFCE) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	est, err := core.New(core.Config{Epsilon: acc.Epsilon, Delta: acc.Delta})
	if err != nil {
		return nil, err
	}
	return BFCEStepper(est.Stepper()), nil
}

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

// Stepper implements Estimator. Accuracy does not size LOF: it is a
// fixed-budget rough estimator.
func (l *LOF) Stepper(Accuracy) (Stepper, error) {
	return &lofStepper{roughLOF{rounds: roughRounds}}, nil
}

func (s *lofStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	return Result{Estimate: s.estimate(), Rounds: s.rounds, Slots: s.slots, Cost: cost, Seconds: cost.Seconds(profile)}
}

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
// on (ε, δ) alone, so it is sized up front, capped at zoeMaxSlots.
func (*ZOE) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	m, err := ZOESlots(acc)
	if err != nil {
		return nil, err
	}
	return &zoeStepper{rough: roughLOF{rounds: roughRounds}, m: min(m, zoeMaxSlots)}, nil
}

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
