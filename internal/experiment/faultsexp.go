package experiment

import (
	"rfidest"
	"rfidest/internal/stats"
	"rfidest/internal/xrand"
)

// Faults sweeps the channel-fault severity knob against BFCE, with and
// without degenerate-round retries, quantifying what the fault-injection
// subsystem is for: burst noise, erasures, truncation and reader stalls
// degrade accuracy and occasionally saturate a round outright, and the
// retry policy (re-run with fresh frame seeds under an air-time budget)
// buys back most of the saturation-induced failures at a measured cost.
//
// Both legs run through rfidest.System.Run over the same salted session,
// so the sweep measures the retry the library ships: the retry leg's
// first attempt replays the plain leg, and its extra air time is exactly
// what the re-runs cost.
func Faults(o Options) *Table {
	trials := o.trials(10)
	retries := 2
	if o.Retries > 0 {
		retries = o.Retries
	}
	t := NewTable("Extension — channel-fault severity sweep (n=200000, (0.05,0.05), BFCE)",
		"severity", "mean acc", "p95 acc", "sat%",
		"mean acc(retry)", "sat%(retry)", "retries/run", "extra air s")
	for _, sev := range []float64{0, 0.25, 0.5, 0.75, 1} {
		var plain, retried []float64
		satPlain, satRetried, retryCount := 0, 0, 0
		extraAir := 0.0
		for trial := 0; trial < trials; trial++ {
			seed := xrand.Combine(o.Seed, 0xfa17, uint64(trial), uint64(sev*100))
			res, rres := faultsTrial(o, 200000, seed, sev, retries)
			plain = append(plain, stats.RelError(res.N, 200000))
			if res.Saturated {
				satPlain++
			}
			retried = append(retried, stats.RelError(rres.N, 200000))
			if rres.Saturated {
				satRetried++
			}
			retryCount += rres.Retries
			extraAir += rres.Seconds - res.Seconds
		}
		p, r := stats.Summarize(plain), stats.Summarize(retried)
		t.Addf(sev, p.Mean, p.P95, 100*float64(satPlain)/float64(trials),
			r.Mean, 100*float64(satRetried)/float64(trials),
			float64(retryCount)/float64(trials), extraAir/float64(trials))
	}
	// The degenerate row the retry policy exists for: an empty
	// interrogation zone saturates every round (all-idle frames), so every
	// allowed retry is spent before the run degrades to the clamp bound.
	// Accuracy columns are meaningless at n=0 and render as "-".
	satPlain, satRetried, retryCount := 0, 0, 0
	extraAir := 0.0
	for trial := 0; trial < trials; trial++ {
		res, rres := faultsTrial(o, 0, xrand.Combine(o.Seed, 0xfa17, uint64(trial), 0xe0), o.Faults, retries)
		if res.Saturated {
			satPlain++
		}
		if rres.Saturated {
			satRetried++
		}
		retryCount += rres.Retries
		extraAir += rres.Seconds - res.Seconds
	}
	t.Addf("empty(n=0)", "-", "-", 100*float64(satPlain)/float64(trials),
		"-", 100*float64(satRetried)/float64(trials), float64(retryCount)/float64(trials), extraAir/float64(trials))
	t.Note = "severity scales all four injectors together (see internal/faults); retry re-runs saturated rounds with fresh frame seeds"
	return t
}

// faultsTrial builds one T2 deployment of n tags behind a channel faulted
// at severity sev and estimates it twice over the same salted session:
// plainly, and under WithRetry(retries, 0).
func faultsTrial(o Options, n int, seed uint64, sev float64, retries int) (plain, retried rfidest.Estimate) {
	sys := rfidest.NewSystem(n, rfidest.WithSeed(seed),
		rfidest.WithDistribution(rfidest.ApproxNormal), rfidest.WithFaults(rfidest.FaultSeverity(sev)))
	run := func(opts ...rfidest.Option) rfidest.Estimate {
		// Experiments are uncancellable by design: a nil ctx is Run's
		// documented no-cancellation default.
		est, err := sys.Run(nil, append(opts, rfidest.WithSeedSalt(1), rfidest.WithObserver(o.Observer))...)
		if err != nil {
			panic(err) // unreachable: the options are valid by construction
		}
		return est
	}
	return run(), run(rfidest.WithRetry(retries, 0))
}
