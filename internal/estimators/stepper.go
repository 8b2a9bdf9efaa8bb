package estimators

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/core"
	"rfidest/internal/stats"
	"rfidest/internal/timing"
)

// This file is the round-structured execution model at the estimator
// level. A Stepper is a protocol as a resumable state machine (see
// channel.Stepper for the round vocabulary); Run is the one driver loop
// every protocol executes under. BFCE, ZOE, SRC and LOF step natively —
// their Plan/Absorb transitions reproduce the old monolithic Estimate
// methods round for round — while the remaining related-work estimators
// (UPE, EZB, FNEB, MLE, ART, PET and the variants) ride the legacy
// adapter: a single "round" that executes the whole run-to-completion
// protocol through the same driver, so every protocol, converted or not,
// hangs off one loop.

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

// Steppable is implemented by estimators that convert natively into round
// state machines. Estimators without it run through the legacy adapter
// (see AsStepper).
type Steppable interface {
	Estimator
	// Stepper returns a fresh round machine for one run at the accuracy
	// target. Like Estimate, it panics on a degenerate accuracy and
	// errors on an invalid protocol configuration.
	Stepper(acc Accuracy) (Stepper, error)
}

// AsStepper converts any registered estimator into a Stepper: natively
// when the protocol implements Steppable, otherwise through the legacy
// adapter, whose single round runs the old Estimate to completion. Either
// way the result is driven by Run — one execution path for every
// protocol, with per-round cancellation and interleaving available
// exactly where native stepping exists.
func AsStepper(est Estimator, acc Accuracy) (Stepper, error) {
	if est == nil {
		return nil, errors.New("estimators: nil estimator")
	}
	if s, ok := est.(Steppable); ok {
		return s.Stepper(acc)
	}
	return &legacyStepper{est: est, acc: acc}, nil
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

// ---------------------------------------------------------------------
// Legacy adapter: one round = one whole run-to-completion protocol.

// legacyStepper adapts an unconverted estimator to the Stepper interface.
// Its Plan is a single Legacy round; RunLegacy executes the estimator's
// monolithic Estimate over the session, so the driven run is bit-identical
// to calling Estimate directly. Legacy runs are not resumable: there is
// exactly one round, and Snapshot carries no mid-run state.
type legacyStepper struct {
	est  Estimator
	acc  Accuracy
	res  Result
	done bool
}

func (l *legacyStepper) Name() string { return l.est.Name() }

func (l *legacyStepper) Plan() channel.RoundSpec {
	return channel.RoundSpec{Legacy: true}
}

func (l *legacyStepper) Absorb(channel.RoundObs) (bool, error) {
	return false, errors.New("estimators: legacy stepper rounds execute via RunLegacy")
}

// RunLegacy implements channel.LegacyRunner.
func (l *legacyStepper) RunLegacy(r *channel.Reader) (bool, error) {
	if l.done {
		return true, errors.New("estimators: legacy stepper re-driven after completion")
	}
	res, err := l.est.Estimate(r, l.acc)
	if err != nil {
		return false, err
	}
	l.res = res
	l.done = true
	return true, nil
}

// Result returns the inner Estimate's result untouched: the monolithic
// protocol already measured its own cost over the same span the driver
// did, so re-stamping would be a no-op.
func (l *legacyStepper) Result(timing.Cost, timing.Profile) Result { return l.res }

// Snapshot returns nil: a legacy run has no resumable mid-run state.
func (l *legacyStepper) Snapshot() any { return nil }

// Restore accepts only the nil snapshot Snapshot produces.
func (l *legacyStepper) Restore(snap any) error {
	if snap != nil {
		return fmt.Errorf("estimators: %s runs via the legacy adapter and is not resumable", l.est.Name())
	}
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

// Stepper implements Steppable.
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

func (s *bfceStepper) Snapshot() any { return s.core.Snapshot() }

func (s *bfceStepper) Restore(snap any) error {
	v, ok := snap.(core.Stepper)
	if !ok {
		return fmt.Errorf("estimators: BFCE restore from foreign snapshot %T", snap)
	}
	s.core.Restore(v)
	return nil
}

// ---------------------------------------------------------------------
// LOF: R rounds of geometric lottery frames.

type lofStepper struct {
	frame  int // frame length
	rounds int // total rounds

	round     int
	slots     int
	sumR      float64
	responded bool
}

// Stepper implements Steppable. Accuracy does not size LOF (it is a
// fixed-budget rough estimator), matching Estimate.
func (l *LOF) Stepper(Accuracy) (Stepper, error) {
	f := l.FrameSize
	if f <= 0 {
		f = 32
	}
	rounds := l.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	return &lofStepper{frame: f, rounds: rounds}, nil
}

func (s *lofStepper) Name() string { return "LOF" }

func (s *lofStepper) Plan() channel.RoundSpec {
	return channel.RoundSpec{
		Broadcast: timing.SeedBits,
		Frame: channel.FrameRequest{
			W:    s.frame,
			K:    1,
			P:    1,
			Dist: channel.Geometric,
		},
	}
}

func (s *lofStepper) Absorb(o channel.RoundObs) (bool, error) {
	s.slots += s.frame
	// The observation is the number of leading busy slots (the first
	// idle position); a fully busy frame reports its length.
	first := o.Frame.FirstIdle()
	if first > 0 {
		s.responded = true
	}
	s.sumR += float64(first)
	s.round++
	return s.round >= s.rounds, nil
}

func (s *lofStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	res := Result{Rounds: s.rounds, Slots: s.slots, Cost: cost, Seconds: cost.Seconds(profile)}
	if s.responded {
		res.Estimate = math.Exp2(s.sumR/float64(s.rounds)) / fmPhi
	}
	return res
}

func (s *lofStepper) Snapshot() any { return *s }

func (s *lofStepper) Restore(snap any) error {
	v, ok := snap.(lofStepper)
	if !ok {
		return fmt.Errorf("estimators: LOF restore from foreign snapshot %T", snap)
	}
	*s = v
	return nil
}

// ---------------------------------------------------------------------
// ZOE: rough sub-stepper, then m single-slot frames.

type zoeStepper struct {
	rough       Stepper
	roughDone   bool
	roughRounds int
	roughSlots  int

	p    float64
	m    int
	slot int
	idle int
}

// Stepper implements Steppable. The rough phase runs as a sub-stepper —
// natively when the configured rough estimator is Steppable (the default
// LOF is), through the legacy adapter otherwise — so a custom rough
// estimator never blocks ZOE from stepping.
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
	roughEst := z.Rough
	if roughEst == nil {
		roughEst = NewLOF()
	}
	rough, err := AsStepper(roughEst, acc)
	if err != nil {
		return nil, err
	}
	return &zoeStepper{m: m, rough: rough}, nil
}

func (s *zoeStepper) Name() string { return "ZOE" }

func (s *zoeStepper) Plan() channel.RoundSpec {
	if !s.roughDone {
		return s.rough.Plan()
	}
	// One seed broadcast per slot — ZOE's defining (and costly) trait.
	return channel.RoundSpec{
		Broadcast: timing.SeedBits,
		Frame:     channel.FrameRequest{W: 1, K: 1, P: s.p},
	}
}

func (s *zoeStepper) Absorb(o channel.RoundObs) (bool, error) {
	if !s.roughDone {
		done, err := s.rough.Absorb(o)
		if err != nil {
			return false, err
		}
		if done {
			s.finishRough()
		}
		return false, nil
	}
	if !o.Frame.Get(0) {
		s.idle++
	}
	s.slot++
	return s.slot >= s.m, nil
}

// RunLegacy implements channel.LegacyRunner by forwarding a legacy rough
// round to the sub-stepper (ZOE's own accurate rounds are always native).
func (s *zoeStepper) RunLegacy(r *channel.Reader) (bool, error) {
	lr, ok := s.rough.(channel.LegacyRunner)
	if s.roughDone || !ok {
		return false, errors.New("estimators: unexpected legacy round in ZOE")
	}
	done, err := lr.RunLegacy(r)
	if err != nil {
		return false, err
	}
	if done {
		s.finishRough()
	}
	return false, nil
}

// finishRough loads the accurate phase from the rough estimate, exactly
// as the monolithic Estimate did (its slot count m depends on (ε, δ)
// alone, so Stepper sized it up front).
func (s *zoeStepper) finishRough() {
	roughRes := s.rough.Result(timing.Cost{}, timing.Profile{})
	s.roughRounds = roughRes.Rounds
	s.roughSlots = roughRes.Slots
	nRough := roughRes.Estimate
	if nRough < 1 {
		nRough = 1
	}
	s.p = lambdaStarZOE / nRough
	if s.p > 1 {
		s.p = 1
	}
	s.roughDone = true
}

func (s *zoeStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	rho := clampRho(float64(s.idle)/float64(s.m), s.m)
	return Result{
		Estimate: -math.Log(rho) / s.p,
		Rounds:   1 + s.roughRounds,
		Slots:    s.m + s.roughSlots,
		Guarded:  true,
		Cost:     cost,
		Seconds:  cost.Seconds(profile),
	}
}

// zoeSnap carries the stepper's own state plus the rough sub-machine's.
type zoeSnap struct {
	self  zoeStepper
	rough any
}

func (s *zoeStepper) Snapshot() any {
	self := *s
	self.rough = nil
	return zoeSnap{self: self, rough: s.rough.Snapshot()}
}

func (s *zoeStepper) Restore(snap any) error {
	v, ok := snap.(zoeSnap)
	if !ok {
		return fmt.Errorf("estimators: ZOE restore from foreign snapshot %T", snap)
	}
	rough := s.rough
	*s = v.self
	s.rough = rough
	return s.rough.Restore(v.rough)
}

// ---------------------------------------------------------------------
// SRC: rough sub-stepper, then median-combined zero-estimator rounds.

type srcStepper struct {
	rough       Stepper
	roughDone   bool
	roughRounds int

	l, rounds int
	p         float64
	round     int
	slots     int
	estimates []float64
}

// Stepper implements Steppable; the rough phase composes like ZOE's.
func (src *SRC) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	l, err := SRCFrameSize(acc.Epsilon)
	if err != nil {
		return nil, err
	}
	roughEst := src.Rough
	if roughEst == nil {
		roughEst = &LOF{FrameSize: 32, Rounds: 1}
	}
	rough, err := AsStepper(roughEst, acc)
	if err != nil {
		return nil, err
	}
	return &srcStepper{l: l, rounds: SRCRounds(acc.Delta, src.MaxRounds), rough: rough}, nil
}

func (s *srcStepper) Name() string { return "SRC" }

func (s *srcStepper) Plan() channel.RoundSpec {
	if !s.roughDone {
		return s.rough.Plan()
	}
	return channel.RoundSpec{
		Broadcast: timing.SeedBits + timing.PnBits,
		Frame:     channel.FrameRequest{W: s.l, K: 1, P: s.p},
	}
}

func (s *srcStepper) Absorb(o channel.RoundObs) (bool, error) {
	if !s.roughDone {
		done, err := s.rough.Absorb(o)
		if err != nil {
			return false, err
		}
		if done {
			s.finishRough()
		}
		return false, nil
	}
	s.slots += s.l
	rho := clampRho(o.Frame.RhoIdle(), s.l)
	s.estimates = append(s.estimates, zeroEstimate(rho, s.p, s.l))
	s.round++
	return s.round >= s.rounds, nil
}

// RunLegacy implements channel.LegacyRunner for a legacy rough estimator.
func (s *srcStepper) RunLegacy(r *channel.Reader) (bool, error) {
	lr, ok := s.rough.(channel.LegacyRunner)
	if s.roughDone || !ok {
		return false, errors.New("estimators: unexpected legacy round in SRC")
	}
	done, err := lr.RunLegacy(r)
	if err != nil {
		return false, err
	}
	if done {
		s.finishRough()
	}
	return false, nil
}

func (s *srcStepper) finishRough() {
	roughRes := s.rough.Result(timing.Cost{}, timing.Profile{})
	s.roughRounds = roughRes.Rounds
	s.slots = roughRes.Slots
	nRough := roughRes.Estimate
	if nRough < 1 {
		nRough = 1
	}
	s.p = lambdaStarZOE * float64(s.l) / nRough
	if s.p > 1 {
		s.p = 1
	}
	s.estimates = make([]float64, 0, s.rounds)
	s.roughDone = true
}

func (s *srcStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	return Result{
		Estimate: stats.Median(s.estimates),
		Rounds:   s.rounds + s.roughRounds,
		Slots:    s.slots,
		Guarded:  true,
		Cost:     cost,
		Seconds:  cost.Seconds(profile),
	}
}

// srcSnap carries the stepper's own state plus the rough sub-machine's.
type srcSnap struct {
	self  srcStepper
	rough any
}

func (s *srcStepper) Snapshot() any {
	self := *s
	self.rough = nil
	self.estimates = append([]float64(nil), s.estimates...)
	return srcSnap{self: self, rough: s.rough.Snapshot()}
}

func (s *srcStepper) Restore(snap any) error {
	v, ok := snap.(srcSnap)
	if !ok {
		return fmt.Errorf("estimators: SRC restore from foreign snapshot %T", snap)
	}
	rough := s.rough
	*s = v.self
	s.estimates = append([]float64(nil), v.self.estimates...)
	s.rough = rough
	return s.rough.Restore(v.rough)
}

// The native conversions the tentpole names.
var (
	_ Steppable = (*BFCE)(nil)
	_ Steppable = (*ZOE)(nil)
	_ Steppable = (*SRC)(nil)
	_ Steppable = (*LOF)(nil)
)
