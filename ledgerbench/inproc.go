package main

import (
	"context"
	"fmt"

	"rfidest"
	"rfidest/internal/estimators"
	"rfidest/internal/obs"
	"rfidest/internal/tags"
)

// inproc is the fixture of the three in-process workloads: systems built
// with rfidest.NewSystem, ops that are one System.Run each.
type inproc struct {
	p       *plan
	systems []*rfidest.System
	pops    []*tags.Population // traced phase only: populations for re-driving
	reg     *obs.Registry      // traced phase only: phase counters
	genSecs float64            // wall seconds NewSystem spent building tag-level systems
}

func newInproc(p *plan) *inproc {
	f := &inproc{p: p, systems: make([]*rfidest.System, len(p.systems))}
	for i, sp := range p.systems {
		t0 := wall()
		f.systems[i] = rfidest.NewSystem(sp.N, sp.options()...)
		if !sp.Synthetic {
			f.genSecs += wall().Sub(t0).Seconds()
		}
	}
	return f
}

// startTrace builds what only the traced phase uses: the registry for the
// phase counters and a second copy of every population to re-drive over.
// It runs after the untraced phase, so that phase runs with the heap the
// untraced program has.
func (f *inproc) startTrace() {
	f.reg = obs.NewRegistry()
	f.pops = make([]*tags.Population, len(f.p.systems))
	for i, sp := range f.p.systems {
		f.pops[i] = population(sp)
	}
}

func (f *inproc) options(o op) []rfidest.Option {
	return []rfidest.Option{
		rfidest.WithEstimator(o.Estimator),
		rfidest.WithAccuracy(f.p.eps, f.p.delta),
		rfidest.WithSalt(o.Salt),
	}
}

// run executes one op. Untraced it is exactly one System.Run. Traced, the
// same run is opened with StartRun and stepped (session and step spans,
// phase counters through the registry), then re-driven through the timing
// wrappers (round, stepper and frame spans); the two must agree bit for bit.
func (f *inproc) run(ctx context.Context, _, _ int, o op, tr *tracer) (outcome, error) {
	sys := f.systems[o.System]
	out := outcome{n: sys.N(), estimator: o.Estimator, system: o.System}
	if tr == nil {
		est, err := sys.Run(ctx, f.options(o)...)
		out.est = est
		return out, err
	}
	tr.begin(spanSession)
	rs, err := sys.StartRun(append(f.options(o), rfidest.WithObserver(f.reg))...)
	if err != nil {
		tr.end()
		return out, err
	}
	for {
		tr.begin(spanStep)
		done, err := rs.Step(ctx)
		tr.end()
		if err != nil {
			tr.end()
			return out, err
		}
		if done {
			break
		}
	}
	out.est, err = rs.Result()
	tr.end()
	if err != nil {
		return out, err
	}
	tr.begin(spanReplay)
	replayed, err := redrive(ctx, tr, f.p.systems[o.System], f.pops[o.System], o.Estimator,
		estimators.Accuracy{Epsilon: f.p.eps, Delta: f.p.delta}, o.Salt)
	tr.end()
	if err != nil {
		return out, fmt.Errorf("re-drive: %w", err)
	}
	if fingerprint(out.est) != fingerprint(replayed) {
		out.wrong = fmt.Sprintf("%s salt %#x on system %d: re-driven %s, System.Run %s",
			o.Estimator, o.Salt, o.System, describe(replayed), describe(out.est))
	}
	return out, nil
}

// isolate prices allocations per frame and per round from the first ops of
// worker 0, re-driven one at a time outside any timed phase.
func (f *inproc) isolate(ctx context.Context) (allocSplit, error) {
	var a allocSplit
	n := 2 * len(f.p.protocols)
	if n < 8 {
		n = 8
	}
	acc := estimators.Accuracy{Epsilon: f.p.eps, Delta: f.p.delta}
	for i := 0; i < n; i++ {
		o := f.p.op(0, i)
		if err := a.measureAllocs(ctx, f.p.systems[o.System], f.pops[o.System], o.Estimator, acc, o.Salt); err != nil {
			return a, err
		}
	}
	return a, nil
}
