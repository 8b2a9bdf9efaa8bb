package experiment

import (
	"fmt"

	"rfidest/internal/channel"
	"rfidest/internal/estimators"
	"rfidest/internal/stats"
	"rfidest/internal/xrand"
)

// Guarantee validates the (ε, δ) contract empirically: for each
// requirement, each protocol runs many independent estimations of a 300k
// population and the fraction of runs with |n̂−n| > ε·n is compared
// against δ. Theorem 4 promises BFCE's rate stays below δ; ZOE's and
// SRC's rates expose their rough-phase sensitivity (§V-C's "exceptions").
func Guarantee(o Options) *Table {
	trials := o.trials(200)
	t := NewTable(fmt.Sprintf("Extension — empirical (eps,delta) validation (n=300000, %d runs per cell)", trials),
		"eps", "delta", "BFCE viol.", "ZOE viol.", "SRC viol.", "BFCE mean acc")
	const n = 300000
	pairs := [][2]float64{
		{0.05, 0.05}, {0.05, 0.2}, {0.1, 0.05}, {0.1, 0.1}, {0.2, 0.1}, {0.3, 0.3},
	}
	makers := []func() estimators.Estimator{
		func() estimators.Estimator { return estimators.NewBFCE() },
		func() estimators.Estimator { return estimators.NewZOE() },
		func() estimators.Estimator { return estimators.NewSRC() },
	}
	for _, pair := range pairs {
		acc := estimators.Accuracy{Epsilon: pair[0], Delta: pair[1]}
		rates := make([]float64, len(makers))
		bfceAcc := 0.0
		for mi, mk := range makers {
			mi, mk := mi, mk
			errs := parallelMap(o.Workers, trials, func(trial int) float64 {
				seed := xrand.Combine(o.Seed, 0x9a4, uint64(mi),
					uint64(pair[0]*1e4), uint64(pair[1]*1e4), uint64(trial))
				r := channel.NewReader(channel.NewBallsEngine(n, seed), seed+1)
				res, err := estimators.Estimate(mk(), r, acc)
				if err != nil {
					panic(err) // unreachable: session is non-nil by construction
				}
				return stats.RelError(res.Estimate, n)
			})
			viol := 0
			for _, e := range errs {
				if e > pair[0] {
					viol++
				}
			}
			rates[mi] = float64(viol) / float64(trials)
			if mi == 0 {
				bfceAcc = stats.Mean(errs)
			}
		}
		t.Addf(pair[0], pair[1], rates[0], rates[1], rates[2], bfceAcc)
	}
	t.Note = "a protocol honours its contract when its violation rate stays at or below the row's delta"
	return t
}
