package experiment

import (
	"rfidest/internal/channel"
	"rfidest/internal/core"
	"rfidest/internal/estimators"
	"rfidest/internal/stats"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// bfceTrialStats runs BFCE `trials` times with cfg over per-tag sessions
// and returns summary statistics of the relative error, the mean seconds,
// and the lower-bound violation rate.
func bfceTrialStats(o Options, cfg core.Config, n, trials int, salt uint64) (acc stats.Summary, meanSec float64, lbViolations float64) {
	est := core.MustNew(cfg)
	results := parallelMap(o.Workers, trials, func(trial int) core.Result {
		r := o.tagSession(n, tags.T2, channel.IdealRN, xrand.Combine(salt, uint64(trial)))
		res, err := est.Estimate(r)
		if err != nil {
			panic(err) // unreachable: session is non-nil by construction
		}
		return res
	})
	var errs []float64
	secs, viol := 0.0, 0
	for _, res := range results {
		errs = append(errs, stats.RelError(res.Estimate, float64(n)))
		secs += res.Seconds
		if res.LowerBound > float64(n) {
			viol++
		}
	}
	return stats.Summarize(errs), secs / float64(trials), float64(viol) / float64(trials)
}

// AblationK sweeps the hash count k (paper fixes k = 3 as a tradeoff:
// small k → variance from pseudo-random hashing; large k → more seeds to
// broadcast and more tag work).
func AblationK(o Options) *Table {
	trials := o.trials(12)
	t := NewTable("Ablation — hash count k (n=200000, (0.05,0.05))",
		"k", "mean acc", "p95 acc", "mean seconds", "seed bits/phase")
	for k := 1; k <= 8; k++ {
		acc, sec, _ := bfceTrialStats(o, core.Config{K: k}, 200000, trials, uint64(k)^0xa1)
		t.Addf(k, acc.Mean, acc.P95, sec, k*32+32)
	}
	t.Note = "paper's choice k=3: past it, accuracy gains flatten while broadcast cost keeps growing"
	return t
}

// AblationW sweeps the Bloom vector length w (paper fixes w = 8192: the
// scalability window is 0.000326·w … 2365.9·w, and w bounds both accuracy
// and air time).
func AblationW(o Options) *Table {
	trials := o.trials(12)
	t := NewTable("Ablation — vector length w (n=200000, (0.05,0.05))",
		"w", "mean acc", "p95 acc", "mean seconds", "max cardinality")
	for _, w := range []int{1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		rough := w / 8
		acc, sec, _ := bfceTrialStats(o, core.Config{W: w, RoughSlots: rough}, 200000, trials, uint64(w)^0xa2)
		t.Addf(w, acc.Mean, acc.P95, sec, core.MaxCardinality(3, w, 1024))
	}
	t.Note = "rough phase scaled to w/8 slots (paper: 1024 of 8192)"
	return t
}

// AblationC sweeps the rough lower-bound coefficient c ∈ [0.1, 0.9]
// (paper: c = 0.5 "can guarantee n̂_low ≤ n hold in most cases"). Larger c
// tightens p_o (better accuracy) but risks n̂_low > n, which voids
// Theorem 4's transfer.
func AblationC(o Options) *Table {
	trials := o.trials(25)
	t := NewTable("Ablation — lower-bound coefficient c (n=200000, (0.05,0.05))",
		"c", "mean acc", "p95 acc", "lower-bound violation rate")
	for _, c := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		acc, _, viol := bfceTrialStats(o, core.Config{C: c}, 200000, trials, uint64(c*100)^0xa3)
		t.Addf(c, acc.Mean, acc.P95, viol)
	}
	return t
}

// AblationRoughSlots sweeps the rough phase's early-termination point
// (paper: 1024 of the 8192 slots suffice because E[ρ̄] is the same for any
// prefix).
func AblationRoughSlots(o Options) *Table {
	trials := o.trials(12)
	t := NewTable("Ablation — rough-phase slots (n=200000, (0.05,0.05))",
		"rough slots", "mean acc", "p95 acc", "mean seconds")
	for _, s := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		acc, sec, _ := bfceTrialStats(o, core.Config{RoughSlots: s}, 200000, trials, uint64(s)^0xa4)
		t.Addf(s, acc.Mean, acc.P95, sec)
	}
	return t
}

// AblationHashMode compares the tag-side hash implementations across the
// three tagID distributions: the ideal mixer over RN, the ideal mixer over
// the tagID itself, and the paper's literal XOR/bitget scheme with its
// (p_n−1)/1024 persistence bias.
func AblationHashMode(o Options) *Table {
	trials := o.trials(8)
	t := NewTable("Ablation — tag-side hash mode × tagID distribution (n=200000, mean acc)",
		"mode", "T1-uniform", "T2-approx-normal", "T3-normal")
	est := core.MustNew(core.Config{})
	for _, mode := range []channel.HashMode{channel.IdealRN, channel.IdealID, channel.PaperXOR} {
		row := []interface{}{mode.String()}
		for _, d := range tags.Distributions {
			sum := 0.0
			for trial := 0; trial < trials; trial++ {
				r := o.tagSession(200000, d, mode, xrand.Combine(o.Seed, 0xa5, uint64(trial)))
				res, err := est.Estimate(r)
				if err != nil {
					panic(err) // unreachable: session is non-nil by construction
				}
				sum += stats.RelError(res.Estimate, 200000)
			}
			row = append(row, sum/float64(trials))
		}
		t.Addf(row...)
	}
	return t
}

// AblationNoise probes the perfect-channel assumption (§III-A): BFCE
// accuracy under symmetric per-slot reader errors.
func AblationNoise(o Options) *Table {
	trials := o.trials(10)
	t := NewTable("Ablation — channel noise (n=200000, (0.05,0.05), mean acc)",
		"false-busy", "false-idle", "mean acc", "p95 acc")
	est := core.MustNew(core.Config{})
	for _, rates := range [][2]float64{{0, 0}, {0.001, 0}, {0.01, 0}, {0, 0.001}, {0, 0.01}, {0.01, 0.01}, {0.05, 0.05}} {
		var errs []float64
		for trial := 0; trial < trials; trial++ {
			seed := xrand.Combine(o.Seed, 0xa6, uint64(trial), uint64(rates[0]*1e4), uint64(rates[1]*1e4))
			pop := tags.Generate(200000, tags.T2, seed)
			eng := channel.NewNoisyEngine(channel.NewTagEngine(pop, channel.IdealRN), rates[0], rates[1], seed+1)
			r := channel.NewReader(eng, seed+2)
			res, err := est.Estimate(r)
			if err != nil {
				panic(err) // unreachable: session is non-nil by construction
			}
			errs = append(errs, stats.RelError(res.Estimate, 200000))
		}
		s := stats.Summarize(errs)
		t.Addf(rates[0], rates[1], s.Mean, s.P95)
	}
	t.Note = "false-busy hides idle slots (over-estimate); false-idle reveals phantom idles (under-estimate)"
	return t
}

// Bakeoff is an extension beyond the paper: all ten estimators in the
// repository on the same population and accuracy target, one run each.
func Bakeoff(o Options) *Table {
	t := NewTable("Extension — ten-estimator bake-off (n=200000, (0.1,0.1), one run)",
		"estimator", "estimate", "acc", "seconds", "slots", "rounds", "tx/tag")
	all := []estimators.Estimator{
		estimators.NewBFCE(), estimators.NewZOE(), estimators.NewSRC(),
		estimators.NewLOF(), estimators.NewUPE(), estimators.NewEZB(),
		estimators.NewFNEB(), estimators.NewMLE(), estimators.NewART(),
		estimators.NewPET(),
	}
	acc := estimators.Accuracy{Epsilon: 0.1, Delta: 0.1}
	for i, e := range all {
		r := o.session(200000, tags.T2, uint64(i)^0xba)
		res, err := estimators.Estimate(e, r, acc)
		if err != nil {
			panic(err) // unreachable: session is non-nil by construction
		}
		t.Addf(e.Name(), res.Estimate, stats.RelError(res.Estimate, 200000),
			res.Seconds, res.Slots, res.Rounds,
			float64(r.TagTransmissions())/200000)
	}
	t.Note = "LOF is a rough estimator: its accuracy target is a constant factor, not (eps,delta)"
	return t
}
