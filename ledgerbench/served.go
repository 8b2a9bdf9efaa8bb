package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"rfidest"
	"rfidest/internal/checkpoint"
	"rfidest/internal/client"
	"rfidest/internal/estimators"
	"rfidest/internal/fleet"
	"rfidest/internal/serve"
	"rfidest/internal/xrand"
)

const (
	// seededMonitors is how many monitor records the state directory holds
	// before boot: one per client plus idle ones, so recovery has work.
	seededMonitors = 64
	// monitorFast is the writes' fastRounds: most rounds skip the rough phase.
	monitorFast = 4
	// readSampleEvery picks the reads replayed in-process by the gate: the
	// untraced ops whose index is a multiple of it.
	readSampleEvery = 8
	// warmShapes is how many acknowledged warm states a client log keeps
	// as the record shapes the isolated checkpoint appends write.
	warmShapes = 64
)

func monitorName(w int) string { return fmt.Sprintf("ledger-%d", w) }

// served is the serve-rw fixture: an in-process serve.Server with the
// default Config plus the wall clock and checkpoint store rfidserved
// -state-dir injects, behind a loopback listener, and its internal/client
// clients.
type served struct {
	p     *plan
	local []*rfidest.System // in-process twins of every spec, for replays
	seed  [2]map[string]checkpoint.Monitor

	dir        string
	store      *checkpoint.Store
	srv        *serve.Server
	hs         *http.Server
	serveErr   chan error
	transports [clients]*http.Transport
	clients    [clients]*client.Client
	wire       *wireCounter // traced runs only
	final      checkpoint.State

	recoverSecs float64
	logs        [clients]*clientLog
}

// clientLog is what the gate keeps of one client's op stream since boot:
// counts and running folds of estimate fingerprints, never a record per
// op, so the harness's memory does not grow with the run. The plan draws
// every op's system and salt again (plan.op), and check replays them.
type clientLog struct {
	next     int          // one past the last op index the client ran
	untraced int          // one past the last op index it ran untraced
	lost     map[int]bool // failed ops: the server may or may not have applied them

	reads   int    // acknowledged sampled reads
	readSum uint64 // fold of their fingerprints

	rounds int                    // the monitor's rounds as last acknowledged
	acks   int                    // acknowledged writes
	ackSum uint64                 // fold of their fingerprints
	warm   []rfidest.MonitorState // the first warmShapes acknowledged states

	shadow    *rfidest.Monitor // in-process twin of the client's monitor
	walk      int              // next op index the shadow considers
	fed       int              // writes the shadow has run
	shadowSum uint64           // fold of the shadow's fingerprints
}

// fold appends one fingerprint to a running fold.
func fold(sum uint64, e rfidest.Estimate) uint64 { return xrand.Combine(sum, fingerprint(e)) }

func (f *served) spec(i int) serve.SystemSpec {
	sp := f.p.systems[i]
	return serve.SystemSpec{N: sp.N, Seed: sp.Seed, Synthetic: sp.Synthetic}
}

// newServed builds the in-process twins and computes the durable state the
// server will recover: every seeded monitor two warm rounds in.
func newServed(ctx context.Context, p *plan) (*served, error) {
	f := &served{p: p, local: make([]*rfidest.System, len(p.systems))}
	for i, sp := range p.systems {
		f.local[i] = rfidest.NewSystem(sp.N, sp.options()...)
	}
	f.seed = [2]map[string]checkpoint.Monitor{{}, {}}
	for m := 0; m < seededMonitors; m++ {
		name, sys := fmt.Sprintf("idle-%02d", m), m%len(p.order)
		if m < clients {
			name, sys = monitorName(m), len(p.order)+m
		}
		mon, err := rfidest.NewMonitor(p.eps, p.delta, monitorFast)
		if err != nil {
			return nil, err
		}
		spec, err := json.Marshal(f.spec(sys))
		if err != nil {
			return nil, err
		}
		for r := range f.seed {
			if _, err := mon.Run(ctx, f.local[sys], rfidest.WithSalt(xrand.Combine(p.seed, tagSalt, uint64(m), uint64(r), 0x5eed))); err != nil {
				return nil, err
			}
			st := mon.Snapshot()
			f.seed[r][name] = checkpoint.Monitor{Epsilon: p.eps, Delta: p.delta, FastRounds: monitorFast,
				System: spec, Pn: st.Pn, N: st.N, Rounds: st.Rounds}
		}
	}
	return f, nil
}

// twin returns an unbooted fixture sharing f's in-process twins and
// seeded records.
func (f *served) twin() *served {
	return &served{p: f.p, local: f.local, seed: f.seed}
}

// seedDir writes the pre-existing state: a snapshot of every monitor's
// first round and a log tail of their second, left as a crashed server
// leaves it — the store is abandoned without Close, so boot replays the log.
func (f *served) seedDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := checkpoint.Open(dir, checkpoint.Config{NoSync: true, CompactEvery: -1})
	if err != nil {
		return err
	}
	for r, recs := range f.seed {
		names := make([]string, 0, len(recs))
		for name := range recs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := st.PutMonitor(name, recs[name]); err != nil {
				return err
			}
		}
		if r == 0 {
			if err := st.Compact(); err != nil {
				return err
			}
		}
	}
	return nil
}

// boot recovers the store under dir and starts the server and clients.
func (f *served) boot(ctx context.Context, dir string, traced bool) error {
	for w := range f.logs {
		shadow, err := rfidest.NewMonitor(f.p.eps, f.p.delta, monitorFast)
		if err != nil {
			return err
		}
		seeded := f.seed[1][monitorName(w)]
		if err := shadow.Restore(rfidest.MonitorState{Pn: seeded.Pn, N: seeded.N, Rounds: seeded.Rounds}); err != nil {
			return err
		}
		f.logs[w] = &clientLog{rounds: seeded.Rounds, shadow: shadow}
	}
	f.dir = dir
	t0 := wall()
	store, err := checkpoint.Open(dir, checkpoint.Config{})
	if err != nil {
		return err
	}
	f.recoverSecs = wall().Sub(t0).Seconds()
	f.store = store
	f.srv, err = serve.New(ctx, serve.Config{Now: wall, Checkpoint: store})
	if err != nil {
		return errors.Join(err, store.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, f.srv.Shutdown(ctx), store.Close())
	}
	f.hs = &http.Server{Handler: f.srv.Handler()}
	f.serveErr = make(chan error, 1)
	go func() { f.serveErr <- f.hs.Serve(ln) }()
	if traced {
		f.wire = &wireCounter{}
	}
	for w := range f.clients {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		if f.wire != nil {
			dial := (&net.Dialer{}).DialContext
			tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dial(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countedConn{Conn: c, n: f.wire}, nil
			}
		}
		f.transports[w] = tr
		f.clients[w] = client.New(client.Config{
			BaseURL: "http://" + ln.Addr().String(),
			HTTP:    &http.Client{Transport: tr},
			Seed:    xrand.Combine(f.p.seed, tagClient, uint64(w)) | 1,
		})
	}
	return nil
}

// close drains the server, keeps the durable state it leaves for the gate,
// closes the store and removes the state directory.
func (f *served) close(ctx context.Context) error {
	err := f.srv.Shutdown(ctx)
	err = errors.Join(err, f.hs.Shutdown(ctx))
	if serr := <-f.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	for _, tr := range f.transports {
		tr.CloseIdleConnections()
	}
	f.final = f.store.State()
	err = errors.Join(err, f.store.Close())
	return errors.Join(err, os.RemoveAll(f.dir))
}

func (f *served) run(ctx context.Context, w, i int, o op, tr *tracer) (outcome, error) {
	c := f.logs[w]
	c.next = i + 1
	if tr == nil {
		c.untraced = i + 1
	}
	var out outcome
	var err error
	if o.Write {
		out, err = f.write(ctx, w, i, o, tr)
	} else {
		out, err = f.read(ctx, w, i, o, tr)
	}
	if err != nil {
		if c.lost == nil {
			c.lost = map[int]bool{}
		}
		c.lost[i] = true
	}
	return out, err
}

func (f *served) read(ctx context.Context, w, i int, o op, tr *tracer) (outcome, error) {
	salt := o.Salt
	req := serve.EstimateRequest{System: f.spec(o.System), Estimator: "BFCE", Epsilon: f.p.eps, Delta: f.p.delta, Salt: &salt}
	out := outcome{n: req.System.N, estimator: "BFCE", system: o.System, read: true}
	var httpNs int64
	if tr != nil {
		tr.begin(spanHTTP)
	}
	resp, err := f.clients[w].Estimate(ctx, req)
	if tr != nil {
		httpNs = tr.end()
	}
	if err != nil {
		return out, err
	}
	out.est, out.batched = resp.Estimate, resp.Batched
	if resp.Salt != salt {
		out.wrong = fmt.Sprintf("read echoed salt %#x, sent %#x", resp.Salt, salt)
		return out, nil
	}
	if tr == nil {
		if i%readSampleEvery == 0 {
			c := f.logs[w]
			c.reads++
			c.readSum = fold(c.readSum, resp.Estimate)
		}
		return out, nil
	}
	tr.begin(spanInproc)
	est, err := f.local[o.System].Run(ctx, f.readOptions(salt)...)
	inNs := tr.end()
	if err != nil {
		return out, fmt.Errorf("in-process replay: %w", err)
	}
	tr.readOverhead.add(float64(httpNs-inNs)/1e6, tr.rng)
	tr.begin(spanReplay)
	replayed, err := redrive(ctx, tr, f.p.systems[o.System], nil, "BFCE", estimators.Accuracy{Epsilon: f.p.eps, Delta: f.p.delta}, salt)
	tr.end()
	if err != nil {
		return out, fmt.Errorf("re-drive: %w", err)
	}
	if fingerprint(resp.Estimate) != fingerprint(est) || fingerprint(est) != fingerprint(replayed) {
		out.wrong = fmt.Sprintf("read salt %#x: served %s, System.Run %s, re-driven %s",
			salt, describe(resp.Estimate), describe(est), describe(replayed))
	}
	return out, nil
}

func (f *served) readOptions(salt uint64) []rfidest.Option {
	return []rfidest.Option{rfidest.WithEstimator("BFCE"), rfidest.WithAccuracy(f.p.eps, f.p.delta), rfidest.WithSalt(salt)}
}

func (f *served) write(ctx context.Context, w, i int, o op, tr *tracer) (outcome, error) {
	salt := o.Salt
	req := serve.MonitorRequest{Name: monitorName(w), System: f.spec(o.System), Epsilon: f.p.eps, Delta: f.p.delta,
		FastRounds: monitorFast, Salt: &salt}
	out := outcome{n: req.System.N, estimator: "BFCE", system: o.System}
	var httpNs int64
	if tr != nil {
		tr.begin(spanHTTP)
	}
	resp, err := f.clients[w].Monitor(ctx, req)
	if tr != nil {
		httpNs = tr.end()
	}
	if err != nil {
		return out, err
	}
	out.est = resp.Estimate
	c := f.logs[w]
	if resp.Rounds != c.rounds+1 {
		out.wrong = fmt.Sprintf("monitor %s: an acknowledged write moved rounds from %d to %d", req.Name, c.rounds, resp.Rounds)
	}
	c.rounds = resp.Rounds
	c.acks++
	c.ackSum = fold(c.ackSum, resp.Estimate)
	if len(c.warm) < warmShapes {
		c.warm = append(c.warm, resp.Warm)
	}
	if tr == nil {
		return out, nil
	}
	// The shadow caught up before the traced phase and every traced write
	// is fed here, so this runs exactly the write just acknowledged.
	tr.begin(spanInproc)
	est, err := f.feed(ctx, w, i+1)
	inNs := tr.end()
	if err != nil {
		return out, err
	}
	tr.writeOverhead.add(float64(httpNs-inNs)/1e6, tr.rng)
	if out.wrong == "" && fingerprint(est) != fingerprint(resp.Estimate) {
		out.wrong = fmt.Sprintf("monitor %s: acknowledged write (salt %#x) %s, the shadow's %s",
			req.Name, salt, describe(resp.Estimate), describe(est))
	}
	return out, nil
}

// feed runs client w's shadow monitor over the writes among ops
// [walk, end) that did not fail, in order, and returns the last estimate.
func (f *served) feed(ctx context.Context, w, end int) (rfidest.Estimate, error) {
	c := f.logs[w]
	var est rfidest.Estimate
	for ; c.walk < end; c.walk++ {
		o := f.p.op(w, c.walk)
		if !o.Write || c.lost[c.walk] {
			continue
		}
		var err error
		if est, err = c.shadow.Run(ctx, f.local[o.System], rfidest.WithSalt(o.Salt)); err != nil {
			return est, fmt.Errorf("shadow monitor: %w", err)
		}
		c.fed++
		c.shadowSum = fold(c.shadowSum, est)
	}
	return est, nil
}

// catchUp feeds every shadow monitor the writes its client has run.
func (f *served) catchUp(ctx context.Context) error {
	for w, c := range f.logs {
		if _, err := f.feed(ctx, w, c.next); err != nil {
			return err
		}
	}
	return nil
}

// check is serve-rw's correctness gate, run after close: the sampled reads
// replay bit for bit in-process, each shadow monitor ran the acknowledged
// rounds bit for bit, and each monitor's durable warm state is the
// shadow's final state. Reads and rounds are compared as folds, in op order.
func (f *served) check(ctx context.Context) ([]string, error) {
	if err := f.catchUp(ctx); err != nil {
		return nil, err
	}
	var wrong []string
	for w, c := range f.logs {
		reads, sum := 0, uint64(0)
		for i := 0; i < c.untraced; i += readSampleEvery {
			o := f.p.op(w, i)
			if o.Write || c.lost[i] {
				continue
			}
			est, err := f.local[o.System].Run(ctx, f.readOptions(o.Salt)...)
			if err != nil {
				return wrong, err
			}
			reads++
			sum = fold(sum, est)
		}
		if reads != c.reads || sum != c.readSum {
			wrong = append(wrong, fmt.Sprintf("client %d: %d sampled reads served fold to %#x; System.Run on the same %d salts folds to %#x",
				w, c.reads, c.readSum, reads, sum))
		}
		if c.fed != c.acks || c.shadowSum != c.ackSum {
			wrong = append(wrong, fmt.Sprintf("monitor %s: %d acknowledged rounds fold to %#x; the shadow's %d fold to %#x",
				monitorName(w), c.acks, c.ackSum, c.fed, c.shadowSum))
		}
	}
	for w, c := range f.logs {
		want := c.shadow.Snapshot()
		got, ok := f.final.Monitors[monitorName(w)]
		if !ok || got.Pn != want.Pn || math.Float64bits(got.N) != math.Float64bits(want.N) || got.Rounds != want.Rounds {
			wrong = append(wrong, fmt.Sprintf("monitor %s: durable warm state %+v, shadow %+v", monitorName(w), got, want))
		}
	}
	return wrong, nil
}

// isolate prices, outside the timed phases: allocations per frame and
// round of re-driven reads, the fleet batch runner's overhead per job, and
// checkpoint appends of the workload's own monitor records on the same
// filesystem as the server's state.
func (f *served) isolate(ctx context.Context, dir string) (a allocSplit, fleetMs, appendMs, walBytes float64, err error) {
	acc := estimators.Accuracy{Epsilon: f.p.eps, Delta: f.p.delta}
	var diffs []float64
	for i, reads := 0, 0; reads < 64; i++ {
		o := f.p.op(0, i)
		if o.Write {
			continue
		}
		reads++
		if reads <= 8 {
			if err = a.measureAllocs(ctx, f.p.systems[o.System], nil, "BFCE", acc, o.Salt); err != nil {
				return
			}
		}
		sys := f.local[o.System]
		t0 := wall()
		est, rerr := sys.Run(ctx, f.readOptions(o.Salt)...)
		t1 := wall()
		rep, ferr := fleet.Run(ctx, fleet.Config{Seed: f.p.seed | 1}, []fleet.Job{{System: sys, Estimator: "BFCE",
			Epsilon: f.p.eps, Delta: f.p.delta, Options: []rfidest.Option{rfidest.WithSeedSalt(o.Salt)}}})
		t2 := wall()
		if err = errors.Join(rerr, ferr); err != nil {
			return
		}
		if len(rep.Jobs) != 1 || len(rep.Jobs[0].Estimates) != 1 || fingerprint(rep.Jobs[0].Estimates[0]) != fingerprint(est) {
			err = fmt.Errorf("fleet.Run replay of salt %#x differs from System.Run", o.Salt)
			return
		}
		diffs = append(diffs, (t2.Sub(t1)-t1.Sub(t0)).Seconds()*1e3)
	}
	fleetMs = median(diffs)

	var recs []checkpoint.Monitor
	for w, c := range f.logs {
		spec, jerr := json.Marshal(f.spec(len(f.p.order) + w))
		if jerr != nil {
			err = jerr
			return
		}
		for _, st := range c.warm {
			recs = append(recs, checkpoint.Monitor{Epsilon: f.p.eps, Delta: f.p.delta, FastRounds: monitorFast,
				System: spec, Pn: st.Pn, N: st.N, Rounds: st.Rounds})
		}
	}
	if len(recs) == 0 {
		return
	}
	appendMs, walBytes, err = appendCost(dir, recs)
	return
}

// appendCost times durable PutMonitor appends (compaction off, so each is
// one framed write plus fsync) and measures the log bytes each adds.
func appendCost(dir string, recs []checkpoint.Monitor) (p50ms, bytesPerWrite float64, err error) {
	const appends = 128
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	st, err := checkpoint.Open(dir, checkpoint.Config{CompactEvery: -1})
	if err != nil {
		return 0, 0, err
	}
	defer func() { err = errors.Join(err, st.Close(), os.RemoveAll(dir)) }()
	size0, err := dirBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	ms := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		t0 := wall()
		if err := st.PutMonitor(monitorName(i%clients), recs[i%len(recs)]); err != nil {
			return 0, 0, err
		}
		ms = append(ms, wall().Sub(t0).Seconds()*1e3)
	}
	size1, err := dirBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	return median(ms), float64(size1-size0) / appends, nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// wireCounter counts the bytes the clients' connections read and write.
type wireCounter struct{ n atomic.Int64 }

type countedConn struct {
	net.Conn
	n *wireCounter
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.n.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.n.Add(int64(n))
	return n, err
}
