package main

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rfidest"
	"rfidest/internal/obs"
)

// outcome is what one op hands back to the harness.
type outcome struct {
	est       rfidest.Estimate
	n         int // ground truth
	estimator string
	system    int // index into the plan's systems
	read      bool
	batched   bool
	wrong     string // non-empty: the op's output failed a correctness check
}

// fixture executes ops; tr is nil outside traced phases.
type fixture interface {
	run(ctx context.Context, w, i int, o op, tr *tracer) (outcome, error)
}

// maxWrong bounds the correctness-failure messages a tally keeps.
const maxWrong = 8

// tally is one worker's record of one phase. Only its worker touches it
// until the phase ends.
type tally struct {
	next        int     // the worker's next op index
	lat         latHist // successful ops' latencies
	ok, failed  int
	air, relErr float64
	reads       int
	batched     int
	within      shares
	wrong       []string
	wrongCount  int
}

func newTallies(p *plan, next int) []*tally {
	ts := make([]*tally, p.workers)
	for w := range ts {
		ts[w] = &tally{next: next, within: make(shares, len(p.protocols)*len(p.systems))}
	}
	return ts
}

func (t *tally) addWrong(msg string) {
	t.wrongCount++
	if len(t.wrong) < maxWrong {
		t.wrong = append(t.wrong, msg)
	}
}

func (t *tally) record(p *plan, out outcome, err error, lat time.Duration) {
	if err != nil {
		t.failed++
		if t.failed == 1 {
			fmt.Fprintf(os.Stderr, "ledgerbench: op failed: %v\n", err)
		}
		return
	}
	t.ok++
	t.lat.add(int64(lat))
	e := out.est
	if !(e.N > 0) || math.IsInf(e.N, 1) {
		t.addWrong(fmt.Sprintf("%s estimate %v is not finite and positive", out.estimator, e.N))
	}
	if out.wrong != "" {
		t.addWrong(out.wrong)
	}
	rel := math.Abs(e.N-float64(out.n)) / float64(out.n)
	t.air += e.Seconds
	t.relErr += rel
	c := &t.within[p.cell(out.estimator, out.system)]
	c[1]++
	if rel <= p.eps {
		c[0]++
	}
	if out.read {
		t.reads++
		if out.batched {
			t.batched++
		}
	}
}

// loop runs every worker's closed loop: each worker issues its next op as
// soon as the previous one returns, until an op ends past deadline or the
// worker reaches op index stopAt (when stopAt > 0). It returns the wall
// time from start until the last worker stopped.
func loop(ctx context.Context, p *plan, fx fixture, ts []*tally, trs []*tracer, deadline time.Time, stopAt int) time.Duration {
	start := wall()
	var wg sync.WaitGroup
	for w := range ts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := ts[w]
			var tr *tracer
			if trs != nil {
				tr = trs[w]
			}
			for stopAt <= 0 || t.next < stopAt {
				i := t.next
				t.next++
				o := p.op(w, i)
				t0 := wall()
				if tr != nil {
					tr.beginOp(i)
				}
				out, err := fx.run(ctx, w, i, o, tr)
				if tr != nil {
					tr.end()
				}
				t1 := wall()
				t.record(p, out, err, t1.Sub(t0))
				if stopAt <= 0 && !t1.Before(deadline) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return wall().Sub(start)
}

// phaseStats merges a phase's tallies.
type phaseStats struct {
	elapsed     time.Duration
	attempted   int
	ok, failed  int
	air, relErr float64
	reads       int
	batched     int
	lat         latHist
	within      shares
	wrong       []string
	wrongCount  int
}

func merge(elapsed time.Duration, ts []*tally) phaseStats {
	s := phaseStats{elapsed: elapsed, within: make(shares, len(ts[0].within))}
	for _, t := range ts {
		s.ok += t.ok
		s.failed += t.failed
		s.air += t.air
		s.relErr += t.relErr
		s.reads += t.reads
		s.batched += t.batched
		s.lat.merge(&t.lat)
		s.within.merge(t.within)
		s.wrong = append(s.wrong, t.wrong...)
		s.wrongCount += t.wrongCount
	}
	s.attempted = s.ok + s.failed
	return s
}

func (s *phaseStats) throughput() float64 { return float64(s.ok) / s.elapsed.Seconds() }

// quantileMs is the q-quantile of the phase's op latencies in ms, failed
// ops sorting above every success (they read as math.MaxInt64 ns).
func (s *phaseStats) quantileMs(q float64) float64 {
	n := s.lat.n + int64(s.failed)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n-1)
	lo := int64(h)
	v := s.lat.at(lo)
	if lo+1 < n {
		v += (h - float64(lo)) * (s.lat.at(lo+1) - v)
	}
	return v / 1e6
}

// subBits sets the latency histogram's resolution: 2^subBits buckets per
// power of two, so a bucket spans at most 1/128 of its values.
const subBits = 7

// latHist is a log-linear histogram of latencies in ns. It stands in for
// per-op samples so that the benchmark's own memory stays a few tens of
// KB and does not shift the program's GC pacing.
type latHist struct {
	counts [64 << subBits]int64
	n      int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - subBits
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketSpan returns the lowest value bucket i holds and its width.
func bucketSpan(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits - 1
	m := i&(1<<subBits-1) + 1<<subBits
	return float64(int64(m) << e), float64(int64(1) << e)
}

func (h *latHist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// at returns the latency of 0-based rank r, spreading each bucket's values
// evenly across its span; ranks past the histogram are failed ops.
func (h *latHist) at(r int64) float64 {
	if r >= h.n {
		return math.MaxInt64
	}
	for i, c := range h.counts {
		if r < c {
			lo, w := bucketSpan(i)
			return lo + (float64(r)+0.5)*w/float64(c)
		}
		r -= c
	}
	return math.MaxInt64
}

// median of xs (NaN when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// memDelta is the allocator's work over a phase.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func memBetween(a, b *runtime.MemStats) memDelta {
	return memDelta{mallocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc,
		gcs: b.NumGC - a.NumGC, pauseNs: b.PauseTotalNs - a.PauseTotalNs}
}

func (d memDelta) plus(o memDelta) memDelta {
	return memDelta{mallocs: d.mallocs + o.mallocs, bytes: d.bytes + o.bytes, gcs: d.gcs + o.gcs, pauseNs: d.pauseNs + o.pauseNs}
}

// measured is one measured phase: its merged tallies and what the
// allocator did meanwhile.
type measured struct {
	phaseStats
	mem      memDelta
	heapLive uint64  // HeapAlloc after a forced GC at the end of the phase
	segRate  float64 // median over the phase's segments of successful ops per second
}

// measure runs one measured phase of length d as segs equal segments,
// calling between before every segment but the first. Only the segments'
// wall time and allocator work count toward the phase.
func measure(ctx context.Context, p *plan, fx fixture, ts []*tally, trs []*tracer, d time.Duration, segs int, between func() error) (measured, error) {
	var elapsed time.Duration
	var mem memDelta
	rates := make([]float64, 0, segs)
	for k := 0; k < segs; k++ {
		if k > 0 {
			if err := between(); err != nil {
				return measured{}, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ok0 := succeeded(ts)
		seg := loop(ctx, p, fx, ts, trs, wall().Add(d/time.Duration(segs)), 0)
		runtime.ReadMemStats(&m1)
		elapsed += seg
		rates = append(rates, float64(succeeded(ts)-ok0)/seg.Seconds())
		mem = mem.plus(memBetween(&m0, &m1))
	}
	var m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m2)
	return measured{phaseStats: merge(elapsed, ts), mem: mem, heapLive: m2.HeapAlloc, segRate: median(rates)}, nil
}

// succeeded counts the successful ops the tallies hold so far.
func succeeded(ts []*tally) int {
	n := 0
	for _, t := range ts {
		n += t.ok
	}
	return n
}

// endToEnd is the user-visible metric set of one untraced phase; run adds
// setup_s once every set-up is done.
func endToEnd(m *measured) map[string]metric {
	ok := math.Max(float64(m.ok), 1)
	ops := math.Max(float64(m.attempted), 1)
	return map[string]metric{
		"throughput":         {m.segRate, "ops/s"},
		"latency_p50_ms":     {m.quantileMs(0.50), "ms"},
		"latency_p99_ms":     {m.quantileMs(0.99), "ms"},
		"success_rate":       {float64(m.ok) / ops, "ratio"},
		"airtime_s":          {m.air / ok, "s"},
		"rel_err":            {m.relErr / ok, "ratio"},
		"allocs_per_op":      {float64(m.mem.mallocs) / ops, "count"},
		"alloc_bytes_per_op": {float64(m.mem.bytes) / ops, "B"},
		"heap_live_mb":       {float64(m.heapLive) / (1 << 20), "MB"},
	}
}

// layerInputs is everything the per-layer metrics derive from.
type layerInputs struct {
	untraced, traced measured
	tracers          []*tracer
	reg0, reg1       obs.Snapshot // phase counters around the traced phase
	allocs           allocSplit
	genSecs          []float64 // per set-up: NewSystem time of tag-level systems
	recoverSecs      []float64 // per set-up: checkpoint.Open time
	fleetMs          float64
	appendMs         float64
	walBytes         float64
	wireBytes        int64
	attempts, calls  int64
	shed             int64
}

func perLayer(in *layerInputs) map[string]metric {
	var ks [numSpanKinds]kindStats
	var slots int64
	var readOver, writeOver []float64
	for _, tr := range in.tracers {
		for k := range ks {
			ks[k].count += tr.kinds[k].count
			ks[k].self += tr.kinds[k].self
			ks[k].selfs.vals = append(ks[k].selfs.vals, tr.kinds[k].selfs.vals...)
		}
		slots += tr.slots
		readOver = append(readOver, tr.readOverhead.vals...)
		writeOver = append(writeOver, tr.writeOverhead.vals...)
	}
	ops := math.Max(float64(in.traced.attempted), 1)
	perOp := func(v float64) float64 { return v / ops }
	msPerOp := func(k spanKind) float64 { return perOp(float64(ks[k].self) / 1e6) }
	p50us := func(k spanKind) float64 { return zeroIfNaN(median(ks[k].selfs.vals)) / 1e3 }
	nonZero := func(n int64) float64 { return math.Max(float64(n), 1) }

	phase := func(s obs.Snapshot, name string) float64 {
		for _, ph := range s.Phases {
			if ph.Phase == name {
				return ph.Seconds.Sum
			}
		}
		return 0
	}
	var retries int64
	for _, e := range in.reg1.Estimators {
		retries += e.Retries
	}
	for _, e := range in.reg0.Estimators {
		retries -= e.Retries
	}
	a := in.allocs
	roundAllocs := 0.0
	if a.loopMallocs > a.frameMallocs {
		roundAllocs = float64(a.loopMallocs-a.frameMallocs) / nonZero(a.rounds)
	}
	untracedOps := math.Max(float64(in.untraced.attempted), 1)
	return map[string]metric{
		"channel.frames_per_op":          {perOp(float64(ks[spanFrame].count)), "count"},
		"channel.slots_per_op":           {perOp(float64(slots)), "count"},
		"channel.frame_ms_per_op":        {msPerOp(spanFrame), "ms"},
		"channel.frame_us_p50":           {p50us(spanFrame), "us"},
		"channel.frame_allocs":           {float64(a.frameMallocs) / nonZero(a.frames), "count"},
		"channel.frame_alloc_bytes":      {float64(a.frameBytes) / nonZero(a.frames), "B"},
		"channel.rounds_per_op":          {perOp(float64(ks[spanRound].count)), "count"},
		"channel.round_self_ms_per_op":   {msPerOp(spanRound), "ms"},
		"channel.round_self_us_p50":      {p50us(spanRound), "us"},
		"channel.round_allocs":           {roundAllocs, "count"},
		"estimators.plan_ms_per_op":      {msPerOp(spanPlan), "ms"},
		"estimators.absorb_ms_per_op":    {msPerOp(spanAbsorb), "ms"},
		"estimators.legacy_ms_per_op":    {msPerOp(spanLegacy), "ms"},
		"core.probe_rounds_per_op":       {perOp(float64(in.reg1.ProbeRoundsTotal - in.reg0.ProbeRoundsTotal)), "count"},
		"core.airtime_probe_s":           {perOp(phase(in.reg1, "probe") - phase(in.reg0, "probe")), "s"},
		"core.airtime_rough_s":           {perOp(phase(in.reg1, "rough") - phase(in.reg0, "rough")), "s"},
		"core.airtime_accurate_s":        {perOp(phase(in.reg1, "accurate") - phase(in.reg0, "accurate")), "s"},
		"rfidest.session_self_ms_per_op": {msPerOp(spanSession), "ms"},
		"rfidest.retries_per_op":         {perOp(float64(retries)), "count"},
		"tags.generate_s":                {zeroIfNaN(median(append([]float64(nil), in.genSecs...))), "s"},
		"fleet.overhead_ms_per_job":      {in.fleetMs, "ms"},
		"serve.batched_share":            {float64(in.traced.batched) / nonZero(int64(in.traced.reads)), "ratio"},
		"serve.read_overhead_ms_p50":     {zeroIfNaN(median(readOver)), "ms"},
		"serve.write_overhead_ms_p50":    {zeroIfNaN(median(writeOver)), "ms"},
		"serve.wire_bytes_per_op":        {perOp(float64(in.wireBytes)), "B"},
		"serve.rejected_per_op":          {perOp(float64(in.shed)), "count"},
		"client.attempts_per_call":       {float64(in.attempts) / nonZero(in.calls), "count"},
		"checkpoint.append_ms_p50":       {in.appendMs, "ms"},
		"checkpoint.wal_bytes_per_write": {in.walBytes, "B"},
		"checkpoint.recover_ms":          {zeroIfNaN(median(append([]float64(nil), in.recoverSecs...))) * 1e3, "ms"},
		"runtime.gc_per_kop":             {float64(in.untraced.mem.gcs) / untracedOps * 1e3, "count"},
		"runtime.gc_pause_ms_per_kop":    {float64(in.untraced.mem.pauseNs) / 1e6 / untracedOps * 1e3, "ms"},
		"trace.overhead_ratio":           {in.traced.throughput() / in.untraced.throughput(), "ratio"},
	}
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// stateDir returns the directory the workload keeps on-disk state in.
func stateDir(root, workload string) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d", workload, os.Getpid()))
}
