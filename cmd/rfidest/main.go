// Command rfidest runs a single cardinality estimation over a simulated
// RFID deployment and reports the estimate, its error and its air-time
// cost.
//
// Usage examples:
//
//	rfidest -n 500000                         # BFCE at (0.05, 0.05)
//	rfidest -n 500000 -estimator ZOE          # the comparison protocol
//	rfidest -n 100000 -dist normal -runs 20   # repeated runs + summary
//	rfidest -n 250000 -detail                 # BFCE internal diagnostics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"rfidest"
)

func main() {
	ctx := context.Background()
	var (
		n         = flag.Int("n", 100000, "true tag cardinality to simulate")
		dist      = flag.String("dist", "uniform", "tagID distribution: uniform | approx-normal | normal")
		estimator = flag.String("estimator", "BFCE", "protocol to run: "+strings.Join(rfidest.Estimators(), " | "))
		eps       = flag.Float64("eps", 0.05, "confidence interval epsilon")
		delta     = flag.Float64("delta", 0.05, "error probability delta")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		runs      = flag.Int("runs", 1, "number of independent estimation runs")
		synthetic = flag.Bool("synthetic", false, "sample exact frame statistics instead of materializing tags")
		paperHash = flag.Bool("paperhash", false, "tags run the paper's literal XOR/bitget hash")
		falseBusy = flag.Float64("false-busy", 0, "per-slot probability an idle slot reads busy")
		falseIdle = flag.Float64("false-idle", 0, "per-slot probability a busy slot reads idle")
		detail    = flag.Bool("detail", false, "print BFCE phase diagnostics (BFCE only)")
	)
	flag.Parse()

	opts := []rfidest.SystemOption{rfidest.WithSeed(*seed)}
	switch *dist {
	case "uniform":
		opts = append(opts, rfidest.WithDistribution(rfidest.Uniform))
	case "approx-normal":
		opts = append(opts, rfidest.WithDistribution(rfidest.ApproxNormal))
	case "normal":
		opts = append(opts, rfidest.WithDistribution(rfidest.Normal))
	default:
		fmt.Fprintf(os.Stderr, "rfidest: unknown distribution %q\n", *dist)
		os.Exit(2)
	}
	if *synthetic {
		opts = append(opts, rfidest.WithSynthetic())
	}
	if *paperHash {
		opts = append(opts, rfidest.WithPaperTagHash())
	}
	if *falseBusy > 0 || *falseIdle > 0 {
		opts = append(opts, rfidest.WithNoise(*falseBusy, *falseIdle))
	}

	sys := rfidest.NewSystem(*n, opts...)
	fmt.Printf("system: n=%d dist=%s estimator=%s (eps=%.3g delta=%.3g)\n",
		*n, *dist, *estimator, *eps, *delta)

	if *detail {
		if *estimator != "BFCE" {
			fmt.Fprintln(os.Stderr, "rfidest: -detail is BFCE-only")
			os.Exit(2)
		}
		for run := 0; run < *runs; run++ {
			det, err := sys.RunBFCEDetail(ctx, rfidest.WithAccuracy(*eps, *delta))
			if err != nil {
				fmt.Fprintf(os.Stderr, "rfidest: %v\n", err)
				os.Exit(1)
			}
			e := det.Estimate
			fmt.Printf("run %2d: n̂=%.0f err=%.4f  rough=%.0f low=%.0f  ps=%d/1024 po=%d/1024 probes=%d feasible=%v  %.4fs\n",
				run+1, e.N, relErr(e.N, *n), det.Rough, det.LowerBound,
				det.ProbePn, det.OptimalPn, det.ProbeRounds, det.Feasible, e.Seconds)
		}
		return
	}

	var errSum, secSum float64
	worst := 0.0
	for run := 0; run < *runs; run++ {
		est, err := sys.Run(ctx, rfidest.WithEstimator(*estimator), rfidest.WithAccuracy(*eps, *delta))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfidest: %v\n", err)
			os.Exit(1)
		}
		re := relErr(est.N, *n)
		errSum += re
		secSum += est.Seconds
		if re > worst {
			worst = re
		}
		fmt.Printf("run %2d: n̂=%.0f err=%.4f  air-time=%.4fs  slots=%d reader-bits=%d rounds=%d guarded=%v\n",
			run+1, est.N, re, est.Seconds, est.Slots, est.ReaderBits, est.Rounds, est.Guarded)
	}
	if *runs > 1 {
		fmt.Printf("summary: mean-err=%.4f worst-err=%.4f mean-air-time=%.4fs\n",
			errSum/float64(*runs), worst, secSum/float64(*runs))
	}
}

func relErr(nhat float64, n int) float64 {
	if n == 0 {
		return 0
	}
	d := nhat - float64(n)
	if d < 0 {
		d = -d
	}
	return d / float64(n)
}
