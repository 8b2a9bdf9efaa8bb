package experiment

import (
	"rfidest/internal/channel"
	"rfidest/internal/estimators"
	"rfidest/internal/stats"
	"rfidest/internal/xrand"
)

// AblationCapture sweeps the capture-effect probability (a collision slot
// read as a singleton): collision-counting estimators (UPE-collision) are
// biased low as capture grows, empty-slot estimators (UPE's zero variant)
// shrug, and bit-slot protocols (BFCE) are immune by construction — busy
// is busy whether or not a reply was decodable.
func AblationCapture(o Options) *Table {
	trials := o.trials(8)
	t := NewTable("Ablation — capture effect (n=100000, (0.1,0.1), mean acc)",
		"capture prob", "BFCE", "UPE (zero)", "UPE (collision)")
	const n = 100000
	acc := estimators.Accuracy{Epsilon: 0.1, Delta: 0.1}
	for _, pc := range []float64{0, 0.1, 0.3, 0.5} {
		means := make([]float64, 3)
		protos := []estimators.Estimator{
			estimators.NewBFCE(),
			estimators.NewUPE(),
			&estimators.UPE{CollisionBased: true},
		}
		for pi, e := range protos {
			sum := 0.0
			for trial := 0; trial < trials; trial++ {
				seed := xrand.Combine(o.Seed, 0xcae, uint64(pc*100), uint64(pi), uint64(trial))
				eng := channel.NewCaptureEngine(channel.NewBallsEngine(n, seed), pc, seed+1)
				r := channel.NewReader(eng, seed+2)
				res, err := estimators.Estimate(e, r, acc)
				if err != nil {
					panic(err) // unreachable: session is non-nil by construction
				}
				sum += stats.RelError(res.Estimate, n)
			}
			means[pi] = sum / float64(trials)
		}
		t.Addf(pc, means[0], means[1], means[2])
	}
	t.Note = "capture converts collision slots to singletons; only protocols that distinguish the two are affected"
	return t
}
