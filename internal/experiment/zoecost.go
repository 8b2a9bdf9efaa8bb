package experiment

import (
	"rfidest/internal/estimators"
	"rfidest/internal/stats"
	"rfidest/internal/tags"
)

// AblationZOECost isolates where ZOE's execution time comes from — the
// paper's central argument made quantitative. ZOE-batched is ZOE with the
// per-slot 32-bit seed broadcast replaced by one counter-derived seed
// (identical observations, hence identical estimation quality); the gap
// between the two columns is purely reader→tag traffic. BFCE is alongside
// for scale, and BFCE-multi shows how BFCE spends extra constant-time
// rounds to buy accuracy.
func AblationZOECost(o Options) *Table {
	t := NewTable("Ablation — where ZOE's time goes (n=500000, seconds and accuracy)",
		"eps", "ZOE s", "ZOE-batched s", "BFCE s", "BFCE-multi s",
		"ZOE acc", "ZOE-batched acc", "BFCE acc", "BFCE-multi acc")
	all := []estimators.Estimator{
		estimators.NewZOE(),
		estimators.NewZOEBatched(),
		estimators.NewBFCE(),
		estimators.NewBFCEMulti(),
	}
	for _, eps := range []float64{0.05, 0.1, 0.2, 0.3} {
		acc := estimators.Accuracy{Epsilon: eps, Delta: 0.05}
		secs := make([]interface{}, 0, len(all))
		errs := make([]interface{}, 0, len(all))
		for i, e := range all {
			r := o.session(500000, tags.T2, uint64(eps*1e4)+uint64(i)*7919)
			res, err := estimators.Estimate(e, r, acc)
			if err != nil {
				panic(err) // unreachable: session is non-nil by construction
			}
			secs = append(secs, res.Seconds)
			errs = append(errs, stats.RelError(res.Estimate, 500000))
		}
		row := append([]interface{}{eps}, secs...)
		row = append(row, errs...)
		t.Addf(row...)
	}
	t.Note = "ZOE minus ZOE-batched = the per-slot seed broadcasts; the observations (and accuracy) are statistically identical"
	return t
}
