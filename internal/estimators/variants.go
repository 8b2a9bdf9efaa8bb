package estimators

import (
	"errors"
	"math"

	"rfidest/internal/channel"
	"rfidest/internal/stats"
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
	// Inner configures the per-round estimator; nil uses paper defaults.
	Inner *BFCE
}

// NewBFCEMulti returns the multi-round variant with 5 rounds.
func NewBFCEMulti() *BFCEMulti { return &BFCEMulti{Rounds: 5} }

// Name implements Estimator.
func (m *BFCEMulti) Name() string { return "BFCE-multi" }

// Estimate implements Estimator.
func (m *BFCEMulti) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	if r == nil {
		return Result{}, errors.New("estimators: nil session")
	}
	acc.Validate()
	rounds := m.Rounds
	if rounds <= 0 {
		rounds = 5
	}
	inner := m.Inner
	if inner == nil {
		inner = NewBFCE()
	}
	start := r.Cost()
	var estimates []float64
	slots := 0
	guarded := true
	for i := 0; i < rounds; i++ {
		res, err := inner.Estimate(r, acc)
		if err != nil {
			return Result{}, err
		}
		estimates = append(estimates, res.Estimate)
		slots += res.Slots
		guarded = guarded && res.Guarded
	}
	res := Result{
		Estimate: stats.Mean(estimates),
		Rounds:   rounds,
		Slots:    slots,
		Guarded:  guarded,
	}
	res.Cost = r.Cost().Sub(start)
	res.Seconds = res.Cost.Seconds(r.Profile)
	return res, nil
}

// ZOEBatched is a what-if ablation of ZOE, not a published protocol: the
// same m single-bit observations, but tags derive each slot's coin from a
// counter under ONE broadcast seed instead of receiving a fresh 32-bit
// seed per slot. It isolates the source of ZOE's cost — with the per-slot
// broadcast gone, the m slots run back-to-back as one frame and the
// protocol's time collapses toward BFCE's, at identical estimation
// quality. (The published ZOE broadcasts per slot because C1G2 tags lack a
// trusted per-slot counter; the variant assumes the §IV-E.2 tag model,
// which can XOR a counter into its prestored RN.)
type ZOEBatched struct {
	// MaxSlots caps the observation count (default 65536).
	MaxSlots int
}

// NewZOEBatched returns the batched ZOE ablation.
func NewZOEBatched() *ZOEBatched { return &ZOEBatched{} }

// Name implements Estimator.
func (z *ZOEBatched) Name() string { return "ZOE-batched" }

// Estimate implements Estimator.
func (z *ZOEBatched) Estimate(r *channel.Reader, acc Accuracy) (Result, error) {
	if r == nil {
		return Result{}, errors.New("estimators: nil session")
	}
	acc.Validate()
	start := r.Cost()

	rough, err := NewLOF().Estimate(r, acc)
	if err != nil {
		return Result{}, err
	}
	nRough := rough.Estimate
	if nRough < 1 {
		nRough = 1
	}
	p := lambdaStarZOE / nRough
	if p > 1 {
		p = 1
	}
	// Cap in float: an extreme (ε, δ) sizes m past int (see zoeSlots).
	max := z.MaxSlots
	if max <= 0 {
		max = 65536
	}
	m := max
	if sized := zoeSlots(acc); sized < float64(max) {
		m = int(sized)
	}

	// One seed broadcast, then m back-to-back single-bit observations.
	// Each observation is an independent per-slot coin for every tag;
	// modelled as m W=1 frames under counter-derived seeds, but priced as
	// one contiguous listen.
	r.BroadcastParams(timing.SeedBits + timing.PnBits)
	base := r.NextSeed()
	idle := 0
	for i := 0; i < m; i++ {
		vec := r.Engine.RunFrame(channel.FrameRequest{
			W: 1, K: 1, P: p, Seed: base + uint64(i),
		})
		if !vec.Get(0) {
			idle++
		}
	}
	r.ListenSlots(m)

	rho := clampRho(float64(idle)/float64(m), m)
	res := Result{
		Estimate: -math.Log(rho) / p,
		Rounds:   1 + rough.Rounds,
		Slots:    m + rough.Slots,
		Guarded:  true,
	}
	res.Cost = r.Cost().Sub(start)
	res.Seconds = res.Cost.Seconds(r.Profile)
	return res, nil
}
