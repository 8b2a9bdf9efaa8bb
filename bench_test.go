// Benchmark harness: one benchmark per table/figure of the paper (the
// bench both times the regeneration and prints the regenerated table, so
// `go test -bench=.` reproduces the full evaluation), plus micro-benchmarks
// of the estimation hot paths.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured results
// are recorded in EXPERIMENTS.md.
package rfidest_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"rfidest"
	"rfidest/internal/experiment"
	"rfidest/internal/fleet"
)

// printedTables dedupes table output across the benchmark framework's
// calibration reruns (the tables are deterministic per Options, so the
// first print is the print).
var printedTables = map[string]bool{}

// benchTable runs one experiment b.N times and prints the resulting table
// once.
func benchTable(b *testing.B, runner experiment.Runner, trials int) {
	b.Helper()
	o := experiment.DefaultOptions()
	o.Trials = trials
	var tab *experiment.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab = runner(o)
	}
	b.StopTimer()
	if printedTables[tab.Title] {
		return
	}
	printedTables[tab.Title] = true
	fmt.Println()
	if err := tab.Render(os.Stdout); err != nil {
		b.Fatal(err)
	}
}

// ---- the paper's figures (Fig. 1 is a concept sketch, Fig. 2 a protocol
// diagram and Table I a symbol table; everything with data is below). ----

func BenchmarkFig3Feasibility(b *testing.B)        { benchTable(b, experiment.Fig3, 0) }
func BenchmarkFig4GammaRange(b *testing.B)         { benchTable(b, experiment.Fig4, 0) }
func BenchmarkFig5Monotonicity(b *testing.B)       { benchTable(b, experiment.Fig5, 0) }
func BenchmarkFig6Distributions(b *testing.B)      { benchTable(b, experiment.Fig6, 0) }
func BenchmarkFig7aAccuracyVsN(b *testing.B)       { benchTable(b, experiment.Fig7a, 0) }
func BenchmarkFig7bAccuracyVsEpsilon(b *testing.B) { benchTable(b, experiment.Fig7b, 0) }
func BenchmarkFig7cAccuracyVsDelta(b *testing.B)   { benchTable(b, experiment.Fig7c, 0) }

// BenchmarkFig8CDF uses 40 rounds per distribution instead of the paper's
// 100 to keep the bench under a minute; `cmd/experiments -run fig8` runs
// the full 100.
func BenchmarkFig8CDF(b *testing.B) { benchTable(b, experiment.Fig8, 40) }

func BenchmarkFig9ComparisonAccuracy(b *testing.B) { benchTable(b, experiment.Fig9, 0) }
func BenchmarkFig10ComparisonTime(b *testing.B)    { benchTable(b, experiment.Fig10, 0) }
func BenchmarkOverheadBudget(b *testing.B)         { benchTable(b, experiment.Overhead, 0) }

// ---- ablations of the paper's design choices (DESIGN.md §5). ----

func BenchmarkAblationK(b *testing.B)          { benchTable(b, experiment.AblationK, 6) }
func BenchmarkAblationW(b *testing.B)          { benchTable(b, experiment.AblationW, 6) }
func BenchmarkAblationC(b *testing.B)          { benchTable(b, experiment.AblationC, 10) }
func BenchmarkAblationRoughSlots(b *testing.B) { benchTable(b, experiment.AblationRoughSlots, 6) }
func BenchmarkAblationHashMode(b *testing.B)   { benchTable(b, experiment.AblationHashMode, 4) }
func BenchmarkAblationNoise(b *testing.B)      { benchTable(b, experiment.AblationNoise, 5) }
func BenchmarkAblationZOECost(b *testing.B)    { benchTable(b, experiment.AblationZOECost, 0) }
func BenchmarkAblationCapture(b *testing.B)    { benchTable(b, experiment.AblationCapture, 4) }
func BenchmarkBakeoff(b *testing.B)            { benchTable(b, experiment.Bakeoff, 0) }

// BenchmarkInventoryCrossover regenerates the exact-counting vs estimation
// comparison (the quantified version of §III-A's scoping argument).
func BenchmarkInventoryCrossover(b *testing.B) { benchTable(b, experiment.InventoryCrossover, 0) }

// BenchmarkMonitoring regenerates the drifting-deployment monitoring table
// (warm-started BFCE + differential snapshots).
func BenchmarkMonitoring(b *testing.B) { benchTable(b, experiment.Monitoring, 0) }

// BenchmarkMissingTags regenerates the missing-tag identification table.
func BenchmarkMissingTags(b *testing.B) { benchTable(b, experiment.MissingTags, 0) }

// BenchmarkGuarantee regenerates the empirical (eps,delta) validation with
// a reduced trial count (the full 200-run table is `cmd/experiments -run
// guarantee`).
func BenchmarkGuarantee(b *testing.B) { benchTable(b, experiment.Guarantee, 60) }

// ---- micro-benchmarks of the estimation hot paths. ----

// BenchmarkBFCETagLevel measures one full BFCE estimation over a
// materialized population of 100k tags (per-tag fidelity), with the ideal
// tag hash and with the paper's, after one warm estimation that builds
// what a population builds once (paper-hash tags' RN planes).
func BenchmarkBFCETagLevel(b *testing.B) {
	for _, leg := range []struct {
		name string
		opts []rfidest.SystemOption
	}{
		{"ideal", nil},
		{"paper", []rfidest.SystemOption{rfidest.WithPaperTagHash()}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			sys := rfidest.NewSystem(100000, append(leg.opts, rfidest.WithSeed(1))...)
			if _, err := sys.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var secs float64
			for i := 0; i < b.N; i++ {
				est, err := sys.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				secs = est.Seconds
			}
			b.ReportMetric(secs, "airtime-s/op")
		})
	}
}

// BenchmarkBFCESynthetic measures one BFCE estimation over the exact
// synthetic channel (no per-tag iteration) at three sizes: n = 10³, near
// the accuracy floor, where the p_o search finds a numerator past 900 of
// 1023 or none; n = 3·10⁴; and n = 10⁶, where the balls engine throws
// the ~5,900 responses of the accurate frame and only the heard share of
// the probe and rough frames' ~23,000 each.
func BenchmarkBFCESynthetic(b *testing.B) {
	for _, n := range []int{1000, 30000, 1000000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys := rfidest.NewSystem(n, rfidest.WithSeed(2), rfidest.WithSynthetic())
			for i := 0; i < b.N; i++ {
				if _, err := sys.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZOESynthetic measures one full ZOE estimation (its ~4000
// single-slot frames) over the synthetic channel.
func BenchmarkZOESynthetic(b *testing.B) {
	sys := rfidest.NewSystem(500000, rfidest.WithSeed(3), rfidest.WithSynthetic())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(context.Background(), rfidest.WithEstimator("ZOE"), rfidest.WithAccuracy(0.05, 0.05)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetEstimate measures the fleet runner's parallel throughput:
// a mixed batch of 8 shared synthetic Systems × BFCE with 4 trials each,
// fanned out over GOMAXPROCS workers (sub-benchmark "seq" pins one worker
// as the scaling baseline). The per-op metric of interest is
// estimations/s; the baseline recording lives in results/BENCH_fleet.json.
func BenchmarkFleetEstimate(b *testing.B) {
	var jobs []fleet.Job
	for i := 0; i < 8; i++ {
		sys := rfidest.NewSystem(100000*(i+1), rfidest.WithSeed(uint64(i)), rfidest.WithSynthetic())
		jobs = append(jobs, fleet.Job{
			System: sys, Estimator: "BFCE", Epsilon: 0.05, Delta: 0.05, Trials: 4,
		})
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"seq", 1},
		{fmt.Sprintf("par-%d", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var rep *fleet.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = fleet.Run(context.Background(), fleet.Config{Workers: bc.workers, Seed: 0xbead}, jobs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Throughput, "estimations/s")
			b.ReportMetric(rep.MeanAbsErr, "mean-abs-err")
		})
	}
}

// BenchmarkFleetEstimateObs measures observability overhead on the exact
// workload of BenchmarkFleetEstimate at workers=1: leg "noop" runs
// uninstrumented (the default observer), leg "registry" attaches one
// shared metrics registry to every trial. scripts/obsbench.sh is the CI
// gate: the instrumented leg must stay within 5% of noop, pinning both
// the zero-allocation noop contract and the registry's lock-cheap claim.
func BenchmarkFleetEstimateObs(b *testing.B) {
	var jobs []fleet.Job
	for i := 0; i < 8; i++ {
		sys := rfidest.NewSystem(100000*(i+1), rfidest.WithSeed(uint64(i)), rfidest.WithSynthetic())
		jobs = append(jobs, fleet.Job{
			System: sys, Estimator: "BFCE", Epsilon: 0.05, Delta: 0.05, Trials: 4,
		})
	}
	for _, bc := range []struct {
		name     string
		observer rfidest.Observer
	}{
		{"noop", nil},
		{"registry", rfidest.NewMetrics()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var rep *fleet.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = fleet.Run(context.Background(),
					fleet.Config{Workers: 1, Seed: 0xbead, Observer: bc.observer}, jobs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Throughput, "estimations/s")
			b.ReportMetric(rep.MeanAbsErr, "mean-abs-err")
		})
	}
}

// BenchmarkFaults measures the fault-injection subsystem: leg "off" is the
// clean tag-level baseline, leg "sev-0.5" runs the same estimation through
// the severity-0.5 injector (burst noise, erasures, truncation, stalls),
// and leg "retry" adds the degenerate-round retry policy on top. The off
// vs sev overhead is the injector's word-level XOR cost; the baseline
// recording lives in results/BENCH_faults.json.
func BenchmarkFaults(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts []rfidest.SystemOption
		run  []rfidest.Option
	}{
		{"off", nil, nil},
		{"sev-0.5", []rfidest.SystemOption{rfidest.WithFaults(rfidest.FaultSeverity(0.5))}, nil},
		{"retry", []rfidest.SystemOption{rfidest.WithFaults(rfidest.FaultSeverity(0.5))},
			[]rfidest.Option{rfidest.WithRetry(2, 0)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sys := rfidest.NewSystem(100000, append([]rfidest.SystemOption{rfidest.WithSeed(5)}, bc.opts...)...)
			b.ResetTimer()
			var secs float64
			for i := 0; i < b.N; i++ {
				est, err := sys.Run(context.Background(),
					append([]rfidest.Option{rfidest.WithSalt(uint64(i))}, bc.run...)...)
				if err != nil {
					b.Fatal(err)
				}
				secs = est.Seconds
			}
			b.ReportMetric(secs, "airtime-s/op")
		})
	}
}

// BenchmarkSRCSynthetic measures one full SRC estimation (7 median rounds).
func BenchmarkSRCSynthetic(b *testing.B) {
	sys := rfidest.NewSystem(500000, rfidest.WithSeed(4), rfidest.WithSynthetic())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(context.Background(), rfidest.WithEstimator("SRC"), rfidest.WithAccuracy(0.05, 0.05)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPETSynthetic measures one full PET estimation over the
// synthetic channel: its lottery frames, each 32 geometric slots under
// full persistence, whose heads the balls engine writes saturated.
func BenchmarkPETSynthetic(b *testing.B) {
	sys := rfidest.NewSystem(500000, rfidest.WithSeed(5), rfidest.WithSynthetic())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(context.Background(), rfidest.WithEstimator("PET"), rfidest.WithAccuracy(0.05, 0.05)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUPESynthetic measures one full UPE estimation over the
// synthetic channel: 1,024-slot slot-state frames, the calibration
// frames among them loaded past the throw/split crossover or saturated.
func BenchmarkUPESynthetic(b *testing.B) {
	sys := rfidest.NewSystem(500000, rfidest.WithSeed(6), rfidest.WithSynthetic())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(context.Background(), rfidest.WithEstimator("UPE"), rfidest.WithAccuracy(0.05, 0.05)); err != nil {
			b.Fatal(err)
		}
	}
}
