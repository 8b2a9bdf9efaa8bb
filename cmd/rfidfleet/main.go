// Command rfidfleet runs a mixed fleet-estimation workload — N simulated
// deployments crossed with M estimators — concurrently over the
// internal/fleet worker pool and prints a throughput/accuracy report.
// It is the load harness for the concurrent session layer: many
// independent reader sessions in flight against shared Systems, with
// results bit-identical for a fixed seed no matter the worker count or
// scheduling mode. -retry and -trial-timeout reach every job as
// rfidest.WithRetry and rfidest.WithTimeout in its Options.
//
// Usage examples:
//
//	rfidfleet                                      # 8 systems x BFCE,ZOE,SRC
//	rfidfleet -systems 16 -trials 10 -workers 4    # bounded pool
//	rfidfleet -estimators BFCE -min-n 1e4 -max-n 1e6
//	rfidfleet -tag-level -noise 0.001              # per-tag fidelity + noise
//	rfidfleet -faults 0.5 -retry 2                 # lossy channels + WithRetry
//	rfidfleet -trial-timeout 1s                    # per-trial deadline
//	rfidfleet -interleave                          # breadth-first round scheduler
//	rfidfleet -timeout 10s                         # cancel long batches
//	rfidfleet -metrics text                        # observability snapshot
//	rfidfleet -cpuprofile fleet.pprof              # profile the run
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"rfidest"
	"rfidest/internal/fleet"
	"rfidest/internal/obs"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so the deferred metrics dump and profile
// stop execute on every path.
func run() int {
	var (
		systems      = flag.Int("systems", 8, "number of simulated deployments")
		minN         = flag.Float64("min-n", 10000, "smallest deployment cardinality")
		maxN         = flag.Float64("max-n", 1000000, "largest deployment cardinality (log-spaced up from min-n)")
		estimators   = flag.String("estimators", "BFCE,ZOE,SRC", "comma-separated estimator names: "+strings.Join(rfidest.Estimators(), " | "))
		eps          = flag.Float64("eps", 0.05, "confidence interval epsilon")
		delta        = flag.Float64("delta", 0.05, "error probability delta")
		trials       = flag.Int("trials", 5, "estimations per (system, estimator) job")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; results identical either way)")
		seed         = flag.Uint64("seed", 1, "root seed: pins populations and every trial's session")
		tagLevel     = flag.Bool("tag-level", false, "materialize tag populations (default: exact synthetic channel)")
		noise        = flag.Float64("noise", 0, "symmetric per-slot reader error rate applied to half the systems")
		faults       = flag.Float64("faults", 0, "channel fault severity in [0, 1]: scales burst noise, erasures, truncation and reader stalls on every system (0 = no injection)")
		retry        = flag.Int("retry", 0, "re-run a saturated round up to this many times inside its trial (rfidest.WithRetry); a trial still saturated degrades the job")
		trialTimeout = flag.Duration("trial-timeout", 0, "per-trial deadline; a timed-out trial fails its job (0 = no limit)")
		interleave   = flag.Bool("interleave", false, "run the batch on the deterministic round scheduler (breadth-first across jobs)")
		timeout      = flag.Duration("timeout", 0, "cancel the batch after this long (0 = no limit)")
		verbose      = flag.Bool("v", false, "also print one line per job")
		metrics      = flag.String("metrics", "", `dump an observability snapshot on exit: "text" or "json"`)
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *systems < 1 || *trials < 1 || *minN < 1 || *maxN < *minN {
		fmt.Fprintln(os.Stderr, "rfidfleet: need systems >= 1, trials >= 1, 1 <= min-n <= max-n")
		return 2
	}
	if !(*faults >= 0 && *faults <= 1) {
		fmt.Fprintf(os.Stderr, "rfidfleet: -faults must be in [0, 1], got %v\n", *faults)
		return 2
	}
	if *retry < 0 || *trialTimeout < 0 {
		fmt.Fprintln(os.Stderr, "rfidfleet: need retry >= 0, trial-timeout >= 0")
		return 2
	}
	if *metrics != "" && *metrics != "text" && *metrics != "json" {
		fmt.Fprintf(os.Stderr, "rfidfleet: -metrics must be \"text\" or \"json\", got %q\n", *metrics)
		return 2
	}
	var names []string
	for _, name := range strings.Split(*estimators, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "rfidfleet: no estimators selected")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfidfleet: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rfidfleet: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var registry *obs.Registry
	var observer obs.Observer
	if *metrics != "" {
		registry = obs.NewRegistry()
		observer = registry
		defer func() {
			var err error
			if *metrics == "json" {
				err = registry.Snapshot().WriteJSON(os.Stdout)
			} else {
				err = registry.Snapshot().WriteText(os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "rfidfleet: metrics dump: %v\n", err)
			}
		}()
	}

	jobs := buildWorkload(workloadSpec{
		systems: *systems, minN: *minN, maxN: *maxN, names: names,
		eps: *eps, delta: *delta, trials: *trials, seed: *seed,
		tagLevel: *tagLevel, noise: *noise,
		faults: *faults, retry: *retry, trialTimeout: *trialTimeout,
	})

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	mode := fmt.Sprintf("workers=%d", *workers)
	if *interleave {
		mode = "interleaved"
	}
	fmt.Printf("fleet: %d systems x %d estimators x %d trials = %d estimations (%s seed=%d)\n",
		*systems, len(names), *trials, *systems*len(names)**trials, mode, *seed)

	rep, err := fleet.Run(ctx, fleet.Config{
		Workers: *workers, Seed: *seed, Observer: observer, Interleave: *interleave,
	}, jobs)
	if err != nil && rep == nil {
		fmt.Fprintf(os.Stderr, "rfidfleet: %v\n", err)
		return 1
	}

	if *verbose {
		for _, r := range rep.Jobs {
			switch {
			case r.Skipped:
				fmt.Printf("  %-28s skipped (cancelled)\n", r.Label())
			case r.Err != nil:
				fmt.Printf("  %-28s FAILED at trial %d: %v\n", r.Label(), r.FailedAt, r.Err)
			default:
				suffix := ""
				if r.Degraded {
					suffix = fmt.Sprintf(" DEGRADED (retries=%d degraded-trials=%d)", r.Retries, r.DegradedTrials)
				} else if r.Retries > 0 {
					suffix = fmt.Sprintf(" retries=%d", r.Retries)
				}
				fmt.Printf("  %-28s n=%-8d trials=%d mean-err=%.4f max-err=%.4f air=%.3fs%s\n",
					r.Label(), r.Job.System.N(), len(r.Estimates), r.MeanAbsErr, r.MaxAbsErr, r.AirSeconds, suffix)
			}
		}
	}

	fmt.Println()
	fmt.Printf("%-12s %5s %7s %10s %9s %10s %8s %9s %8s\n",
		"estimator", "jobs", "trials", "mean-err", "p90-err", "air-time", "failed", "degraded", "retries")
	for _, g := range rep.PerEstimator() {
		fmt.Printf("%-12s %5d %7d %10.4f %9.4f %9.3fs %8d %9d %8d\n",
			g.Estimator, g.Jobs, g.Trials, g.MeanAbsErr, g.P90AbsErr, g.AirSeconds, g.Failed, g.Degraded, g.Retries)
	}
	fmt.Println()
	fmt.Printf("totals: %d trials (%d jobs failed, %d skipped, %d degraded, %d retries)  mean-err=%.4f p50=%.4f p90=%.4f p99=%.4f max=%.4f\n",
		rep.Trials, rep.Failed, rep.Skipped, rep.Degraded, rep.Retries, rep.MeanAbsErr, rep.P50AbsErr, rep.P90AbsErr, rep.P99AbsErr, rep.MaxAbsErr)
	fmt.Printf("time:   simulated air %.2fs, wall %.2fs, throughput %.1f estimations/s\n",
		rep.AirSeconds, rep.WallSeconds, rep.Throughput)
	if *interleave && rep.Trials > 0 {
		fmt.Printf("sched:  %d protocol rounds interleaved across %d sessions (%.1f rounds/session)\n",
			rep.SchedRounds, rep.Trials, float64(rep.SchedRounds)/float64(rep.Trials))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfidfleet: batch cancelled: %v\n", err)
		return 1
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// workloadSpec bundles the workload-shaping flags.
type workloadSpec struct {
	systems      int
	minN, maxN   float64
	names        []string
	eps, delta   float64
	trials       int
	seed         uint64
	tagLevel     bool
	noise        float64
	faults       float64
	retry        int
	trialTimeout time.Duration
}

// buildWorkload lays out the mixed batch: `systems` deployments with
// log-spaced cardinalities cycling through the three tagID distributions,
// every other one noisy when a noise rate is set, crossed with the chosen
// estimators. A non-zero fault severity installs the severity-scaled
// channel-fault plan on every system; the retry count (as
// rfidest.WithRetry) and the per-trial deadline (as rfidest.WithTimeout)
// ride along in every job's Options. Everything derives from seed, so a
// fixed command line is a fixed workload.
func buildWorkload(spec workloadSpec) []fleet.Job {
	dists := []rfidest.Distribution{rfidest.Uniform, rfidest.ApproxNormal, rfidest.Normal}
	var jobs []fleet.Job
	for i := 0; i < spec.systems; i++ {
		frac := 0.0
		if spec.systems > 1 {
			frac = float64(i) / float64(spec.systems-1)
		}
		n := int(math.Round(spec.minN * math.Pow(spec.maxN/spec.minN, frac)))
		opts := []rfidest.SystemOption{rfidest.WithSeed(spec.seed + uint64(i))}
		variant := "synthetic"
		if spec.tagLevel {
			opts = append(opts, rfidest.WithDistribution(dists[i%len(dists)]))
			variant = dists[i%len(dists)].String()
		} else {
			opts = append(opts, rfidest.WithSynthetic())
		}
		if spec.noise > 0 && i%2 == 1 {
			opts = append(opts, rfidest.WithNoise(spec.noise, spec.noise))
			variant += "+noise"
		}
		if spec.faults > 0 {
			opts = append(opts, rfidest.WithFaults(rfidest.FaultSeverity(spec.faults)))
			variant += "+faults"
		}
		sys := rfidest.NewSystem(n, opts...)
		var runOpts []rfidest.Option
		if spec.trialTimeout > 0 {
			runOpts = append(runOpts, rfidest.WithTimeout(spec.trialTimeout))
		}
		if spec.retry > 0 {
			runOpts = append(runOpts, rfidest.WithRetry(spec.retry, 0))
		}
		for _, name := range spec.names {
			jobs = append(jobs, fleet.Job{
				Name:      fmt.Sprintf("n=%d(%s)/%s", n, variant, name),
				System:    sys,
				Estimator: name,
				Epsilon:   spec.eps,
				Delta:     spec.delta,
				Trials:    spec.trials,
				Options:   runOpts,
			})
		}
	}
	return jobs
}
