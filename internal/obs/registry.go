package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 accumulated with compare-and-swap — the
// lock-free sum cell of histograms and per-estimator air-time totals.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bound, lock-free histogram: observations land in
// the first bucket whose upper bound is >= the value, with one implicit
// overflow bucket past the last bound. Bounds are set at construction and
// never change, so Observe is a binary search plus two atomic adds.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last is the overflow bucket
	count  atomic.Int64
	sum    atomicFloat
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// It panics on empty or unsorted bounds — histogram shapes are code, not
// data, and a misordered literal is a programming error.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts has one
// entry per bound plus a final overflow bucket (> Bounds[len-1]).
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// phaseMetrics aggregates the per-phase series: span counts, slot/bit
// counters fed by the channel hooks, and an air-time histogram fed by
// phase spans.
type phaseMetrics struct {
	spans      atomic.Int64
	slots      atomic.Int64
	readerBits atomic.Int64
	frames     atomic.Int64
	busySlots  atomic.Int64
	seconds    *Histogram
}

// estimatorMetrics is the registry-level per-protocol accounting.
type estimatorMetrics struct {
	sessions   atomic.Int64
	errors     atomic.Int64
	rounds     atomic.Int64
	slots      atomic.Int64
	readerBits atomic.Int64
	airSeconds atomicFloat
	tagTx      atomic.Int64
	guarded    atomic.Int64
	retries    atomic.Int64
	degraded   atomic.Int64
}

// faultMetrics aggregates the injector counters across sessions.
type faultMetrics struct {
	sessions    atomic.Int64 // sessions that reported any faults
	frames      atomic.Int64
	burstFlips  atomic.Int64
	erasures    atomic.Int64
	truncations atomic.Int64
	stalls      atomic.Int64
	stallSlots  atomic.Int64
	perSession  *Histogram // fault events per reporting session
}

// Default bucket bounds. Air time brackets the paper's 0.19 s constant-time
// budget; probe rounds bracket BFCE's 768-round probe cap; relative
// error brackets the evaluated (ε, δ) grid.
var (
	airTimeBounds    = []float64{0.01, 0.02, 0.05, 0.1, 0.19, 0.25, 0.5, 1, 2, 5}
	probeRoundBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	relErrBounds     = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}
	faultBounds      = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500}
)

// Registry is the metrics sink: an Observer that turns span hooks into
// counters and histograms. It is lock-cheap — every hot-path hook lands in
// atomic counters; the only lock is a read-mostly map guard around the
// per-estimator table, taken once per session close (and only its read
// half in steady state). Safe for any number of concurrent sessions.
//
// The zero value is not ready; construct with NewRegistry.
type Registry struct {
	sessions         atomic.Int64
	errors           atomic.Int64
	frames           atomic.Int64
	slots            atomic.Int64
	readerBits       atomic.Int64
	tagTransmissions atomic.Int64
	probeRoundsTotal atomic.Int64

	retries  atomic.Int64
	degraded atomic.Int64

	phases      [NumPhases]phaseMetrics
	faults      faultMetrics
	airTime     *Histogram
	probeRounds *Histogram
	estErr      *Histogram

	mu         sync.RWMutex
	estimators map[string]*estimatorMetrics
}

// NewRegistry returns an empty registry with the default bucket layout.
func NewRegistry() *Registry {
	r := &Registry{
		airTime:     NewHistogram(airTimeBounds...),
		probeRounds: NewHistogram(probeRoundBounds...),
		estErr:      NewHistogram(relErrBounds...),
		estimators:  make(map[string]*estimatorMetrics),
	}
	for p := range r.phases {
		r.phases[p].seconds = NewHistogram(airTimeBounds...)
	}
	r.faults.perSession = NewHistogram(faultBounds...)
	return r
}

// estimator returns the per-protocol cell for name, creating it on first
// use. Steady state is one RLock'd map read.
func (r *Registry) estimator(name string) *estimatorMetrics {
	r.mu.RLock()
	m := r.estimators[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.estimators[name]; m == nil {
		m = &estimatorMetrics{}
		r.estimators[name] = m
	}
	return m
}

func (r *Registry) phase(p Phase) *phaseMetrics {
	if p >= NumPhases {
		p = PhaseRun
	}
	return &r.phases[p]
}

// SessionOpen implements Observer.
func (r *Registry) SessionOpen(string) { r.sessions.Add(1) }

// SessionClose implements Observer.
func (r *Registry) SessionClose(s SessionStats) {
	if s.Err {
		r.errors.Add(1)
	} else {
		r.airTime.Observe(s.Seconds)
	}
	if s.TagTransmissions > 0 {
		r.tagTransmissions.Add(int64(s.TagTransmissions))
	}
	m := r.estimator(s.Estimator)
	m.sessions.Add(1)
	if s.Err {
		m.errors.Add(1)
		return
	}
	m.rounds.Add(int64(s.Rounds))
	m.slots.Add(int64(s.Slots))
	m.readerBits.Add(int64(s.ReaderBits))
	m.airSeconds.Add(s.Seconds)
	if s.TagTransmissions > 0 {
		m.tagTx.Add(int64(s.TagTransmissions))
	}
	if s.Guarded {
		m.guarded.Add(1)
	}
}

// PhaseStart implements Observer.
func (r *Registry) PhaseStart(Phase) {}

// PhaseEnd implements Observer.
func (r *Registry) PhaseEnd(p Phase, s PhaseStats) {
	m := r.phase(p)
	m.spans.Add(1)
	m.seconds.Observe(s.Seconds)
}

// Frame implements Observer.
func (r *Registry) Frame(p Phase, f FrameStats) {
	r.frames.Add(1)
	r.slots.Add(int64(f.Observed))
	m := r.phase(p)
	m.frames.Add(1)
	m.slots.Add(int64(f.Observed))
	m.busySlots.Add(int64(f.Busy))
}

// Broadcast implements Observer.
func (r *Registry) Broadcast(p Phase, bits int) {
	r.readerBits.Add(int64(bits))
	r.phase(p).readerBits.Add(int64(bits))
}

// Listen implements Observer.
func (r *Registry) Listen(p Phase, slots int) {
	r.slots.Add(int64(slots))
	r.phase(p).slots.Add(int64(slots))
}

// ProbeRounds implements Observer.
func (r *Registry) ProbeRounds(rounds int) {
	r.probeRoundsTotal.Add(int64(rounds))
	r.probeRounds.Observe(float64(rounds))
}

// EstimateError implements Observer.
func (r *Registry) EstimateError(relErr float64) { r.estErr.Observe(relErr) }

// Faults implements Observer.
func (r *Registry) Faults(s FaultStats) {
	f := &r.faults
	f.sessions.Add(1)
	f.frames.Add(int64(s.Frames))
	f.burstFlips.Add(int64(s.BurstFlips))
	f.erasures.Add(int64(s.Erasures))
	f.truncations.Add(int64(s.Truncations))
	f.stalls.Add(int64(s.Stalls))
	f.stallSlots.Add(int64(s.StallSlots))
	f.perSession.Observe(float64(s.Total()))
}

// Retry implements Observer.
func (r *Registry) Retry(estimator string, attempt int) {
	_ = attempt
	r.retries.Add(1)
	r.estimator(estimator).retries.Add(1)
}

// Degraded implements Observer.
func (r *Registry) Degraded(estimator string) {
	r.degraded.Add(1)
	r.estimator(estimator).degraded.Add(1)
}
