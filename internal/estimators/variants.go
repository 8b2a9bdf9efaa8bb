package estimators

import (
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/core"
	"rfidest/internal/timing"
)

// BFCEMulti runs BFCE for several independent rounds and averages the
// estimates. Fig. 8 of the paper observes that BFCE "offers more accurate
// estimation after multiple runs"; this variant makes that mode a
// first-class estimator so the accuracy-vs-time tradeoff can be swept
// (R rounds cost R × 0.19 s and shrink the standard error by √R).
type BFCEMulti struct {
	// Rounds is the number of independent estimations averaged
	// (default 5).
	Rounds int
}

// NewBFCEMulti returns the multi-round variant with 5 rounds.
func NewBFCEMulti() *BFCEMulti { return &BFCEMulti{Rounds: 5} }

// Name implements Estimator.
func (m *BFCEMulti) Name() string { return "BFCE-multi" }

// Estimate implements Estimator.
func (m *BFCEMulti) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(m, r, acc)
}

// Stepper implements Estimator: R paper-default BFCE machines stepped
// back to back. The next run's probe span opens by closing the previous
// run's accurate span, so observers see each run's spans in order.
func (m *BFCEMulti) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	runs := m.Rounds
	if runs <= 0 {
		runs = 5
	}
	est, err := core.New(core.Config{Epsilon: acc.Epsilon, Delta: acc.Delta})
	if err != nil {
		return nil, err
	}
	fresh := *est.Stepper()
	return &bfceMultiStepper{fresh: fresh, inner: fresh, runs: runs, guarded: true}, nil
}

type bfceMultiStepper struct {
	fresh core.Stepper // an unstarted BFCE run, copied in as each run starts
	inner core.Stepper // the run in progress

	runs    int
	run     int // runs completed
	sum     float64
	guarded bool
}

func (s *bfceMultiStepper) Name() string { return "BFCE-multi" }

func (s *bfceMultiStepper) Plan() channel.RoundSpec { return s.inner.Plan() }

func (s *bfceMultiStepper) Absorb(o channel.RoundObs) (bool, error) {
	done, err := s.inner.Absorb(o)
	if err != nil || !done {
		return false, err
	}
	res := s.inner.Result()
	s.sum += res.Estimate
	s.guarded = s.guarded && res.Feasible
	s.run++
	s.inner = s.fresh
	return s.run >= s.runs, nil
}

// Result averages the runs' estimates. Every slot the session sensed
// belongs to one of the runs, so the slot count is the cost's.
func (s *bfceMultiStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	return Result{
		Estimate: s.sum / float64(s.runs),
		Rounds:   s.runs,
		Slots:    cost.TagSlots,
		Guarded:  s.guarded,
		Cost:     cost,
		Seconds:  cost.Seconds(profile),
	}
}

func (s *bfceMultiStepper) Snapshot() any          { return *s }
func (s *bfceMultiStepper) Restore(snap any) error { return restore(s, snap) }

// ZOEBatched is a what-if ablation of ZOE, not a published protocol: the
// same m single-bit observations, but tags derive each slot's coin from a
// counter under ONE broadcast seed instead of receiving a fresh 32-bit
// seed per slot. It isolates the source of ZOE's cost — with the per-slot
// broadcast gone, the m slots run back-to-back as one frame and the
// protocol's time collapses toward BFCE's, at identical estimation
// quality. (The published ZOE broadcasts per slot because C1G2 tags lack a
// trusted per-slot counter; the variant assumes the §IV-E.2 tag model,
// which can XOR a counter into its prestored RN.)
type ZOEBatched struct{}

// zoeBatchedMaxSlots caps the observation count.
const zoeBatchedMaxSlots = 65536

// NewZOEBatched returns the batched ZOE ablation.
func NewZOEBatched() *ZOEBatched { return &ZOEBatched{} }

// Name implements Estimator.
func (z *ZOEBatched) Name() string { return "ZOE-batched" }

// Estimate implements Estimator.
func (z *ZOEBatched) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(z, r, acc)
}

// Stepper implements Estimator. The cap is applied in float: an extreme
// (ε, δ) sizes m past int (see zoeSlots).
func (z *ZOEBatched) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	m := zoeBatchedMaxSlots
	if sized := zoeSlots(acc); sized < float64(m) {
		m = int(sized)
	}
	return &zoeBatchedStepper{rough: roughLOF{rounds: roughRounds}, m: m}, nil
}

// zoeBatchedStepper follows the rough phase with one seed broadcast and
// m back-to-back single-bit observations. Each observation is an
// independent per-slot coin for every tag, modelled as a silent W = 1
// frame under the counter-derived seed base + i, and the m of them are
// priced as one contiguous listen round.
type zoeBatchedStepper struct {
	rough roughLOF

	m    int
	p    float64
	base uint64 // the broadcast seed, drawn with the first coin
	slot int    // coins drawn so far
	idle int
}

func (s *zoeBatchedStepper) Name() string { return "ZOE-batched" }

func (s *zoeBatchedStepper) Plan() channel.RoundSpec {
	coin := channel.FrameRequest{W: 1, K: 1, P: s.p}
	switch {
	case !s.rough.done():
		return s.rough.Plan()
	case s.slot == 0:
		return channel.RoundSpec{Kind: channel.SilentRound, Broadcast: timing.SeedBits + timing.PnBits, Frame: coin}
	case s.slot < s.m:
		coin.Seed = s.base + uint64(s.slot)
		return channel.RoundSpec{Kind: channel.SilentRound, ReuseSeed: true, Frame: coin}
	default:
		return channel.RoundSpec{Kind: channel.ListenRound, Listen: s.m}
	}
}

func (s *zoeBatchedStepper) Absorb(o channel.RoundObs) (bool, error) {
	switch {
	case !s.rough.done():
		done, err := s.rough.Absorb(o)
		if done {
			s.p = min(lambdaStarZOE/s.rough.n(), 1)
		}
		return false, err
	case s.slot == s.m:
		return true, nil // the listen round
	}
	if s.slot == 0 {
		s.base = o.Seed
	}
	if !o.Frame.Get(0) {
		s.idle++
	}
	s.slot++
	return false, nil
}

func (s *zoeBatchedStepper) Result(cost timing.Cost, profile timing.Profile) Result {
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

func (s *zoeBatchedStepper) Snapshot() any          { return *s }
func (s *zoeBatchedStepper) Restore(snap any) error { return restore(s, snap) }
