// Command ledgerbench is the repository's benchmark: four closed-loop
// workloads, each priced end to end (tracing off) and, in a separate traced
// run with the same seed, layer by layer. See README.md in this directory
// for the workloads, the metrics and the layer map.
//
// From the repository root:
//
//	bash ledgerbench/run.sh --workload bfce-synth --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package into .bench_build/ and runs it with the flags
// given. The run prints a report line (run stamp, op counts, every metric
// with its unit, the correctness gate's details) and then, as the last
// line of standard output, the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set. The command exits 1 when an output fails the
// correctness gate (after printing the result) or when the run cannot be
// completed, and 2 on bad flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rfidest/internal/obs"
)

// setups is how many times a run sets up; setup_s is the median. The
// untraced phase runs in as many segments, with a set-up between each two.
const setups = 10

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	state    string // root of on-disk state: checkpoint stores and span logs
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	c := config{}
	trace := 0
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&c.seed, "seed", 0, "workload seed; every input derives from it (required)")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of each measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: a traced run printing the per-layer metrics")
	fs.StringVar(&c.state, "state", filepath.Join(".bench_build", "ledgerbench"), "directory for on-disk state: checkpoint stores and the span log")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	seeded := false
	fs.Visit(func(f *flag.Flag) { seeded = seeded || f.Name == "seed" })
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	case !seeded:
		return c, errors.New("--seed is required")
	case !(c.seconds > 0):
		return c, errors.New("--seconds must be positive")
	case trace != 0 && trace != 1:
		return c, errors.New("--trace must be 0 or 1")
	}
	c.trace = trace == 1
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(2)
	}
	ctx := context.Background() //lint:allow ctxbg process entry point of the benchmark command
	correct, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// ungated lists end-to-end metrics the report line prints but the result
// line leaves out. Across ten runs of identical code on the reference host,
// latency_p99_ms moved by more than the 25% of its median that the largest
// regression bound may be (README.md has the figures), so it cannot gate a
// change.
var ungated = map[string]bool{"latency_p99_ms": true}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: everything needed to read the numbers.
type report struct {
	Stamp        stamp                 `json:"stamp"`
	Attempted    int                   `json:"attempted"`
	Succeeded    int                   `json:"succeeded"`
	Failed       int                   `json:"failed"`
	ErrorRate    float64               `json:"error_rate"`
	Metrics      map[string]metric     `json:"metrics"`
	EndToEnd     map[string]metric     `json:"untraced_end_to_end,omitempty"`
	Accuracy     map[string]shareCheck `json:"accuracy_gate,omitempty"`
	WrongCount   int                   `json:"wrong_count"`
	Wrong        []string              `json:"wrong,omitempty"`
	SpanLog      string                `json:"span_log,omitempty"`
	SpansKept    int                   `json:"spans_kept,omitempty"`
	SpansDropped int64                 `json:"spans_dropped,omitempty"`
}

// bench holds one run's live fixture across its phases.
type bench struct {
	cfg  config
	p    *plan
	base *served // serve-rw: the in-process twins and seeded records every boot shares
	sv   *served // serve-rw: the live server
	in   *inproc // in-process workloads: the live fixture
	fx   fixture

	setupSecs   []float64
	genSecs     []float64
	recoverSecs []float64
	wrong       []string
	wrongCount  int
}

func (b *bench) addWrong(msgs []string, count int) {
	b.wrongCount += count
	for _, m := range msgs {
		if len(b.wrong) < maxWrong {
			b.wrong = append(b.wrong, m)
		}
	}
}

// build sets up one fixture from scratch and runs the warm-up ops on it,
// timing both: one set-up. A fixture whose warm-up fails still comes back,
// so that the caller can close it.
func (b *bench) build(ctx context.Context, dir string, traced bool) (fixture, error) {
	var sv *served
	if b.base != nil {
		sv = b.base.twin()
		if err := sv.seedDir(dir); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	t0 := wall()
	var fx fixture
	if sv != nil {
		if err := sv.boot(ctx, dir, traced); err != nil {
			return nil, err
		}
		fx = sv
		b.recoverSecs = append(b.recoverSecs, sv.recoverSecs)
	} else {
		in := newInproc(b.p)
		fx = in
		b.genSecs = append(b.genSecs, in.genSecs)
	}
	ts := newTallies(b.p, 0)
	loop(ctx, b.p, fx, ts, nil, time.Time{}, b.p.warm)
	b.setupSecs = append(b.setupSecs, wall().Sub(t0).Seconds())
	warm := merge(0, ts)
	b.addWrong(warm.wrong, warm.wrongCount)
	if warm.failed > 0 {
		return fx, fmt.Errorf("%d of %d warm-up ops failed", warm.failed, warm.attempted)
	}
	return fx, nil
}

// discard shuts a fixture down; only a served one holds resources.
func discard(ctx context.Context, fx fixture) error {
	if sv, ok := fx.(*served); ok {
		return sv.close(ctx)
	}
	return nil
}

// spare times one more set-up on a fixture of its own and discards it. The
// live fixture and its op streams are left as they were, and the spare's
// garbage is left to the program's own GC pacing: forcing a GC here reset
// the pacer every segment and cost baselines-synth ~5% of its throughput.
func (b *bench) spare(ctx context.Context) error {
	fx, err := b.build(ctx, stateDir(b.cfg.state, b.p.workload+"-spare"), false)
	if fx != nil {
		err = errors.Join(err, discard(ctx, fx))
	}
	return err
}

// run executes one benchmark run and writes the report and result lines.
// It reports whether every output passed the correctness gate.
func run(ctx context.Context, cfg config, stdout io.Writer) (bool, error) {
	p, err := newPlan(cfg.workload, cfg.seed)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(cfg.state, 0o755); err != nil {
		return false, err
	}
	b := &bench{cfg: cfg, p: p}
	if p.workload == "serve-rw" {
		if b.base, err = newServed(ctx, p); err != nil {
			return false, err
		}
	}
	b.fx, err = b.build(ctx, stateDir(cfg.state, p.workload), cfg.trace)
	b.sv, _ = b.fx.(*served)
	b.in, _ = b.fx.(*inproc)
	var rep report
	if err == nil {
		rep, err = b.measure(ctx)
	}
	if b.fx != nil {
		err = errors.Join(err, discard(ctx, b.fx))
	}
	if err != nil {
		return false, err
	}
	if b.sv != nil {
		wrong, err := b.sv.check(ctx)
		if err != nil {
			return false, err
		}
		b.addWrong(wrong, len(wrong))
	}
	e2e := rep.Metrics
	if cfg.trace {
		e2e = rep.EndToEnd
	}
	e2e["setup_s"] = metric{median(append([]float64(nil), b.setupSecs...)), "s"}
	rep.Stamp = newStamp(cfg, b.p)
	rep.WrongCount, rep.Wrong = b.wrongCount, b.wrong
	res := result{Correct: b.wrongCount == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for name, m := range rep.Metrics {
		if !ungated[name] {
			res.Metrics[name] = m
		}
	}
	return res.Correct, writeLines(stdout, rep, res)
}

// measure runs the untraced phase and, for a traced run, the traced phase
// and the isolated measurements.
func (b *bench) measure(ctx context.Context) (report, error) {
	cfg, p := b.cfg, b.p
	d := time.Duration(cfg.seconds * float64(time.Second))
	uts := newTallies(p, p.warm)
	untraced, err := measure(ctx, p, b.fx, uts, nil, d, setups, func() error { return b.spare(ctx) })
	if err != nil {
		return report{}, err
	}
	if n := untraced.attempted; n < 1000 {
		fmt.Fprintf(os.Stderr, "ledgerbench: only %d ops measured; latency_p99_ms needs 1000 for ten samples beyond it\n", n)
	}
	phases := []measured{untraced}
	var rep report
	if !cfg.trace {
		rep.Metrics = endToEnd(&untraced)
	} else {
		traced, metrics, err := b.traced(ctx, untraced, uts, d, &rep)
		if err != nil {
			return rep, err
		}
		phases = append(phases, traced)
		rep.EndToEnd = endToEnd(&untraced)
		rep.Metrics = metrics
	}
	within := make(shares, len(untraced.within))
	for _, m := range phases {
		rep.Attempted += m.attempted
		rep.Succeeded += m.ok
		rep.Failed += m.failed
		b.addWrong(m.wrong, m.wrongCount)
		within.merge(m.within)
	}
	if b.in != nil {
		checks, wrong := shareGate(p, within)
		rep.Accuracy = checks
		b.addWrong(wrong, len(wrong))
	}
	rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
	return rep, nil
}

// traced runs the traced phase, continuing each worker's op stream where
// the untraced phase stopped, then the isolated measurements, and writes
// the span log.
func (b *bench) traced(ctx context.Context, untraced measured, uts []*tally, d time.Duration, rep *report) (measured, map[string]metric, error) {
	p := b.p
	in := layerInputs{untraced: untraced, genSecs: b.genSecs, recoverSecs: b.recoverSecs}
	var reg *obs.Registry
	if b.sv != nil {
		// Shadow monitors replay writes inline during the traced phase,
		// so they first catch up with every write run so far.
		if err := b.sv.catchUp(ctx); err != nil {
			return measured{}, nil, err
		}
		reg = b.sv.srv.Registry()
		for _, c := range b.sv.clients {
			st := c.Stats()
			in.attempts -= st.Attempts
			in.calls -= st.Calls
			in.shed -= st.Shed
		}
		in.wireBytes = -b.sv.wire.n.Load()
	} else {
		b.in.startTrace()
		reg = b.in.reg
	}
	epoch := wall()
	trs := make([]*tracer, p.workers)
	ts := newTallies(p, 0)
	for w := range trs {
		trs[w] = newTracer(epoch, p.seed, w)
		ts[w].next = uts[w].next // continue the worker's op stream
	}
	in.reg0 = reg.Snapshot()
	var err error
	if in.traced, err = measure(ctx, p, b.fx, ts, trs, d, 1, nil); err != nil {
		return measured{}, nil, err
	}
	in.reg1 = reg.Snapshot()
	in.tracers = trs
	if b.sv != nil {
		for _, c := range b.sv.clients {
			st := c.Stats()
			in.attempts += st.Attempts
			in.calls += st.Calls
			in.shed += st.Shed
		}
		in.wireBytes += b.sv.wire.n.Load()
		in.allocs, in.fleetMs, in.appendMs, in.walBytes, err = b.sv.isolate(ctx, stateDir(b.cfg.state, "append"))
	} else {
		in.allocs, err = b.in.isolate(ctx)
	}
	if err != nil {
		return measured{}, nil, err
	}
	log := filepath.Join(b.cfg.state, fmt.Sprintf("spans-%s-%d.json", p.workload, p.seed))
	kept, dropped, err := writeSpans(log, trs)
	if err != nil {
		return measured{}, nil, err
	}
	rep.SpanLog, rep.SpansKept, rep.SpansDropped = log, kept, dropped
	return in.traced, perLayer(&in), nil
}
