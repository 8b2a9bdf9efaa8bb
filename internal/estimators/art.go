package estimators

import (
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/timing"
)

// ART is the Average Run based Tag estimation of Shahzad and Liu [23]: it
// observes the average length of runs of busy slots in a frame and inverts
// the run-length statistic instead of the idle fraction.
//
// For a frame whose slots are busy independently with probability
// b = 1 − (1−p/f)^n, the expected busy-run length is 1/(1−b), so the
// observed average run length r̄ gives b̂ = 1 − 1/r̄ and
//
//	n̂ = ln(1−b̂) / ln(1−p/f).
//
// (Slot states in a single-hash frame are negatively correlated rather
// than independent; at the loads used here the correlation is O(1/f) and
// vanishes in the estimate — ART's own analysis makes the same
// approximation.) Rounds are sized with the zero-estimator variance law
// times a small inflation, reflecting that run statistics carry slightly
// less information per slot.
type ART struct{}

const (
	artFrame     = 1024 // frame length
	artMaxRounds = 256  // cap on the measurement phase
)

// NewART returns ART with default settings.
func NewART() *ART { return &ART{} }

// Name implements Estimator.
func (a *ART) Name() string { return "ART" }

// artInflation compensates the run statistic's larger variance relative to
// the idle-fraction statistic at the same load.
const artInflation = 1.5

// Estimate implements Estimator.
func (a *ART) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	return estimate(a, r, acc)
}

// Stepper implements Estimator. ART operates best at moderate busy
// probability; it targets b ≈ 0.5, i.e. load λ = ln 2.
func (a *ART) Stepper(acc Accuracy) (Stepper, error) {
	acc.Validate()
	return &artStepper{
		rough:  roughLOF{rounds: roughRounds},
		rounds: frameRounds(acc, artInflation, math.Ln2, artFrame, artMaxRounds),
	}, nil
}

type artStepper struct {
	rough roughLOF

	rounds int
	p      float64
	round  int
	runLen int // total length of the busy runs observed
	runs   int // busy runs observed
}

func (s *artStepper) Name() string { return "ART" }

func (s *artStepper) Plan() channel.RoundSpec {
	if !s.rough.done() {
		return s.rough.Plan()
	}
	return channel.RoundSpec{
		Broadcast: timing.SeedBits + timing.PnBits,
		Frame:     channel.FrameRequest{W: artFrame, K: 1, P: s.p},
	}
}

func (s *artStepper) Absorb(o channel.RoundObs) (bool, error) {
	if !s.rough.done() {
		done, err := s.rough.Absorb(o)
		if done {
			s.p = min(math.Ln2*artFrame/s.rough.n(), 1)
		}
		return false, err
	}
	for _, run := range o.Frame.Runs() {
		s.runLen += run
		s.runs++
	}
	s.round++
	return s.round >= s.rounds, nil
}

func (s *artStepper) Result(cost timing.Cost, profile timing.Profile) Result {
	res := Result{
		Rounds:  s.rounds + s.rough.rounds,
		Slots:   s.rounds*artFrame + s.rough.slots,
		Guarded: true,
		Cost:    cost,
		Seconds: cost.Seconds(profile),
	}
	if s.runs > 0 {
		rBar := float64(s.runLen) / float64(s.runs)
		b := max(1-1/rBar, 0)
		b = math.Min(b, 1-1e-9)
		res.Estimate = math.Log1p(-b) / math.Log1p(-s.p/artFrame)
	}
	return res
}

func (s *artStepper) Snapshot() any          { return *s }
func (s *artStepper) Restore(snap any) error { return restore(s, snap) }
