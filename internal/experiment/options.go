package experiment

import (
	"rfidest/internal/channel"
	"rfidest/internal/faults"
	"rfidest/internal/obs"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// Options configures an experiment run.
type Options struct {
	// Seed pins all randomness; the same Options reproduce the same table.
	Seed uint64
	// Trials overrides the per-point repetition count of experiments that
	// report rates or distributions (0 keeps each figure's default).
	Trials int
	// Workers bounds the trial worker pool (0 = GOMAXPROCS). Results are
	// independent of the worker count by construction; the knob exists for
	// constrained machines and for verifying exactly that.
	Workers int
	// Observer, when non-nil, is attached to every session an experiment
	// opens; observation is passive, so tables are identical either way.
	Observer obs.Observer
	// Faults, when positive, installs the severity-scaled channel-fault
	// plan (see internal/faults) on every session an experiment opens —
	// the whole suite then reports what the paper's figures look like over
	// a lossy channel. 0 (the default) keeps every table bit-identical to
	// the fault-free baseline.
	Faults float64
	// Retries overrides the degenerate-round retry budget of experiments
	// that exercise the retry policy (currently the "faults" sweep);
	// 0 keeps their defaults.
	Retries int
}

// DefaultOptions is used by the experiments binary and the benches.
func DefaultOptions() Options { return Options{Seed: 0x20150701} }

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// session builds a reader over n synthetic tags: the balls engine samples
// exact frame statistics without iterating tags. The comparison sweeps
// (Fig. 9–10) rely on it: ZOE's thousands of per-slot frames make per-tag
// iteration needlessly slow, and its frame statistics are identical by
// construction (see channel.BallsEngine and TestEnginesAgree). Figures
// whose claim involves tagID distributions (Fig. 6–8 and the ablations)
// use tagSession instead. Each distinct (n, dist, salt) gets independent
// randomness derived from o.Seed.
func (o Options) session(n int, dist tags.Distribution, salt uint64) *channel.Reader {
	seed := xrand.Combine(o.Seed, uint64(n), uint64(dist), salt)
	return o.observed(channel.NewReader(o.faulted(channel.NewBallsEngine(n, seed), seed), seed+1))
}

// tagSession is session pinned to per-tag fidelity with a specific hash
// mode (the hash-mode ablation and the distribution figures need it).
func (o Options) tagSession(n int, dist tags.Distribution, mode channel.HashMode, salt uint64) *channel.Reader {
	seed := xrand.Combine(o.Seed, uint64(n), uint64(dist), uint64(mode), salt)
	eng := channel.NewTagEngine(tags.Generate(n, dist, seed), mode)
	return o.observed(channel.NewReader(o.faulted(eng, seed), seed+1))
}

// faulted wraps eng in the severity-scaled fault injector when the global
// fault knob is set (same salt offset as System.sessionAt: engine at seed,
// reader at seed+1, injector at seed+3).
func (o Options) faulted(eng channel.Engine, seed uint64) channel.Engine {
	if o.Faults > 0 {
		return faults.New(eng, faults.Severity(o.Faults), seed+3)
	}
	return eng
}

// observed attaches the configured observer, if any, to a fresh session.
func (o Options) observed(r *channel.Reader) *channel.Reader {
	if o.Observer != nil {
		r.SetObserver(o.Observer)
	}
	return r
}
