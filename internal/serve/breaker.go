package serve

import (
	"hash/fnv"
	"sync"
	"time"

	"rfidest/internal/obs"
	"rfidest/internal/xrand"
)

// BreakerConfig tunes the per-estimator circuit breakers. The zero value
// of every field selects the default in parentheses; set Disabled to run
// without breakers entirely.
//
// The breaker exists for the regime bounded admission cannot see: the
// queue is healthy but the work itself is rotten — sessions timing out,
// or saturating under channel faults even after their WithRetry re-runs.
// Queueing more of that work is pure waste (every admitted request burns
// simulated air time and a slot), so once an estimator's recent outcomes
// are mostly bad the breaker sheds its traffic at the door with a 503 and
// a Retry-After, and lets a trickle of probes through to notice recovery.
type BreakerConfig struct {
	// Disabled turns the breakers off; every request is admitted.
	Disabled bool
	// Window is the sliding outcome window per estimator (20).
	Window int
	// MinSamples is how many outcomes the window must hold before the
	// breaker may trip (10) — a single early failure must not trip it.
	MinSamples int
	// TripRatio is the bad-outcome fraction that opens the breaker (0.5).
	TripRatio float64
	// CoolDown is how long an open breaker rejects everything before it
	// half-opens (5s).
	CoolDown time.Duration
	// ProbeRatio is the probability a request is admitted as a probe while
	// half-open (0.25). Probes are drawn from a seeded stream, so a given
	// (seed, estimator, arrival index) sequence admits the same probes on
	// every run.
	ProbeRatio float64
	// CloseAfter is how many consecutive probe successes close the breaker
	// again (3); any probe failure re-opens it for a full CoolDown.
	CloseAfter int
}

func (c *BreakerConfig) applyDefaults() {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.TripRatio <= 0 || c.TripRatio > 1 {
		c.TripRatio = 0.5
	}
	if c.CoolDown <= 0 {
		c.CoolDown = 5 * time.Second
	}
	if c.ProbeRatio <= 0 || c.ProbeRatio > 1 {
		c.ProbeRatio = 0.25
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = 3
	}
}

// Breaker states, exported through the obs breaker gauge.
const (
	breakerClosed int64 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerSet is the per-estimator breaker table. All decisions are made
// at request arrival from the injected clock — the breaker never sleeps
// and owns no goroutine, so it is deterministic under a fake clock and
// trivially sleepctx-clean.
type breakerSet struct {
	cfg  BreakerConfig
	seed uint64
	now  func() time.Time
	reg  *obs.RequestRegistry

	mu sync.Mutex
	m  map[string]*breaker
}

type breaker struct {
	name string
	rng  *xrand.Rand // probe admission stream, seeded per estimator

	state    int64
	openedAt time.Time

	// Sliding outcome window (closed state): ring[i] is true for a bad
	// outcome. size grows to cfg.Window then stays; head is the next slot.
	ring []bool
	head int
	size int
	bad  int

	probeOK int // consecutive half-open probe successes
}

// newBreakerSet builds the table. now is the server's injected clock; a
// nil clock disables the breakers (an open state could never cool down),
// which newBreakerSet signals by returning nil — callers treat a nil set
// as "always admit".
func newBreakerSet(cfg BreakerConfig, seed uint64, now func() time.Time, reg *obs.RequestRegistry) *breakerSet {
	if cfg.Disabled || now == nil {
		return nil
	}
	cfg.applyDefaults()
	return &breakerSet{cfg: cfg, seed: seed, now: now, reg: reg, m: make(map[string]*breaker)}
}

// get returns the named breaker, creating it closed on first use. Callers
// hold s.mu.
func (s *breakerSet) get(name string) *breaker {
	b := s.m[name]
	if b == nil {
		h := fnv.New64a()
		h.Write([]byte(name)) //lint:allow errdrop fnv.Write never fails; the hash just keys the probe stream
		b = &breaker{
			name: name,
			rng:  xrand.NewStream(s.seed, 0xb12a, h.Sum64()),
			ring: make([]bool, s.cfg.Window),
		}
		s.m[name] = b
	}
	return b
}

// allow decides whether a request for the named estimator may run. When
// it returns false, retryAfter is the client hint: the remaining cool-down
// for an open breaker, one second for a half-open non-probe.
func (s *breakerSet) allow(name string) (ok bool, retryAfter time.Duration) {
	if s == nil {
		return true, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(name)
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		remaining := s.cfg.CoolDown - s.now().Sub(b.openedAt)
		if remaining > 0 {
			s.reg.BreakerShed(name)
			return false, remaining
		}
		// Cool-down elapsed: half-open on this arrival and fall through to
		// the probe draw.
		b.state = breakerHalfOpen
		b.probeOK = 0
		s.reg.BreakerState(name, breakerHalfOpen)
		fallthrough
	default: // breakerHalfOpen
		if b.rng.Bernoulli(s.cfg.ProbeRatio) {
			return true, 0
		}
		s.reg.BreakerShed(name)
		return false, time.Second
	}
}

// record feeds one completed request's outcome back into the breaker.
// bad means the work itself failed or degraded — a 5xx-class error or a
// saturated/degraded estimate — not a client-side validation error.
func (s *breakerSet) record(name string, bad bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(name)
	switch b.state {
	case breakerClosed:
		if b.size == len(b.ring) {
			if b.ring[b.head] {
				b.bad--
			}
		} else {
			b.size++
		}
		b.ring[b.head] = bad
		if bad {
			b.bad++
		}
		b.head = (b.head + 1) % len(b.ring)
		if b.size >= s.cfg.MinSamples && float64(b.bad) >= s.cfg.TripRatio*float64(b.size) {
			b.trip(s)
		}
	case breakerHalfOpen:
		if bad {
			b.trip(s)
			return
		}
		b.probeOK++
		if b.probeOK >= s.cfg.CloseAfter {
			b.state = breakerClosed
			b.resetWindow()
			s.reg.BreakerState(name, breakerClosed)
		}
	case breakerOpen:
		// A request admitted before the trip landed after it; the window
		// restarts when the breaker closes, so there is nothing to fold in.
	}
}

// open reports whether any breaker in the set is currently open or
// half-open — the readiness probe's "stop routing here" signal.
func (s *breakerSet) open() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.m {
		if b.state != breakerClosed {
			return true
		}
	}
	return false
}

// trip moves the breaker to open as of now. Callers hold s.mu.
func (b *breaker) trip(s *breakerSet) {
	b.state = breakerOpen
	b.openedAt = s.now()
	b.probeOK = 0
	b.resetWindow()
	s.reg.BreakerTrip(b.name)
	s.reg.BreakerState(b.name, breakerOpen)
}

func (b *breaker) resetWindow() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.head, b.size, b.bad = 0, 0, 0
}
