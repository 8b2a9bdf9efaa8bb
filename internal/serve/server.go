package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rfidest/internal/checkpoint"
	"rfidest/internal/obs"
	"rfidest/internal/xrand"
)

// Config tunes a Server. The zero value of every field selects a sensible
// default (see New).
type Config struct {
	// Seed roots server-assigned session salts and is the default batch
	// seed; a server restarted with the same seed assigns the same salt
	// sequence (default 1).
	Seed uint64

	// MaxInFlight bounds concurrently executing requests (default 16);
	// QueueDepth bounds how many more may wait for a slot (default 64).
	// Requests beyond both are refused with 429 and a Retry-After of
	// RetryAfterSeconds (default 1).
	MaxInFlight       int
	QueueDepth        int
	RetryAfterSeconds int

	// DefaultTimeout bounds requests that do not set timeoutMs, and caps
	// those that set a longer one (default 30s; negative disables the
	// default and the cap).
	DefaultTimeout time.Duration

	// MaxSystemN caps system.n in request specs (default 1_000_000) —
	// building a materialized population is O(n) memory, so the cap is
	// the server's memory guard. MaxBatchSessions caps the sessions one
	// batch runs, Σ max(trials, 1) over its jobs (default 64), so a small
	// body cannot ask for unbounded work and reply. MaxBodyBytes caps
	// request bodies (default 1MiB). SystemCacheSize caps the built-system
	// cache (default 64).
	MaxSystemN       int
	MaxBatchSessions int
	MaxBodyBytes     int64
	SystemCacheSize  int

	// Now, when non-nil, is the wall clock used for latency metrics,
	// access logs and the circuit breakers — injected so the library
	// itself never reads the wall clock (cmd/rfidserved passes time.Now).
	// Nil records zero latencies and disables the breakers (an open
	// breaker could never cool down without a clock).
	Now func() time.Time
	// LogRequest, when non-nil, receives one record per request after its
	// response is written. It must be fast and safe for concurrent use.
	LogRequest func(RequestLog)

	// Breaker tunes the per-estimator circuit breakers (see BreakerConfig).
	Breaker BreakerConfig

	// Checkpoint, when non-nil, makes the server crash-safe: the salt
	// sequence and every monitor's warm state are recovered from it at New
	// and appended to it as they advance (cmd/rfidserved opens one under
	// -state-dir). Nil serves statelessly, exactly as before.
	Checkpoint *checkpoint.Store
}

func (c *Config) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.DefaultTimeout < 0 {
		c.DefaultTimeout = 0
	}
	if c.MaxSystemN <= 0 {
		c.MaxSystemN = 1_000_000
	}
	if c.MaxBatchSessions <= 0 {
		c.MaxBatchSessions = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SystemCacheSize <= 0 {
		c.SystemCacheSize = 64
	}
}

// Server is the HTTP estimation service. Build one with New, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg Config

	base   context.Context // root of all estimation work
	cancel context.CancelFunc

	reg     *obs.Registry        // estimation metrics (session/phase spans)
	req     *obs.RequestRegistry // request metrics
	adm     *admission
	brk     *breakerSet // nil when breakers are disabled (no clock)
	systems *systemCache
	mux     *http.ServeMux

	// Durable salt sequence. saltSeq is the live counter; saltReserved is
	// the high-water mark the checkpoint already covers — a salt is never
	// handed out past it without first making a bigger reservation durable,
	// so a restarted server can only skip sequence numbers, never reuse one.
	saltSeq      atomic.Uint64
	saltReserved atomic.Uint64
	saltMu       sync.Mutex
	ckpt         *checkpoint.Store // nil when serving statelessly

	monMu sync.Mutex
	mons  map[string]*servedMonitor
	// monRun serializes rounds per monitor name without holding monMu
	// across a round (Monitor's contract is one goroutine at a time).
	monRun map[string]*sync.Mutex

	ready    atomic.Bool // recovery complete; flips /readyz
	draining atomic.Bool
}

// New builds a Server, recovering durable state from cfg.Checkpoint when
// one is configured. ctx is the root of all estimation work: cancelling
// it stops every in-flight session at its next round boundary (Shutdown
// does this itself when its deadline expires).
//
// With a checkpoint store, New replays the recovered state before the
// first request can be admitted: the salt sequence resumes past its
// durable high-water mark and every checkpointed monitor is rebuilt with
// its warm state intact. Recovery failures are returned, not skipped —
// the store describes acknowledged work, and serving without it would
// silently break the durability contract.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	base, cancel := context.WithCancel(ctx)
	s := &Server{
		cfg:     cfg,
		base:    base,
		cancel:  cancel,
		reg:     obs.NewRegistry(),
		req:     obs.NewRequestRegistry(),
		systems: newSystemCache(cfg.SystemCacheSize),
		mux:     http.NewServeMux(),
		ckpt:    cfg.Checkpoint,
		mons:    make(map[string]*servedMonitor),
		monRun:  make(map[string]*sync.Mutex),
	}
	s.adm = newAdmission(cfg.MaxInFlight, cfg.QueueDepth, s.req)
	s.brk = newBreakerSet(cfg.Breaker, cfg.Seed, cfg.Now, s.req)
	if s.ckpt != nil {
		st := s.ckpt.State()
		s.saltSeq.Store(st.SaltSeq)
		s.saltReserved.Store(st.SaltSeq)
		mons, err := restoreMonitors(st.Monitors, cfg.MaxSystemN)
		if err != nil {
			cancel()
			return nil, err
		}
		s.mons = mons
		for name := range mons {
			s.monRun[name] = &sync.Mutex{}
		}
	}
	s.mux.Handle("POST "+routeEstimate, s.instrument(routeEstimate, true, s.handleEstimate))
	s.mux.Handle("POST "+routeBatch, s.instrument(routeBatch, true, s.handleBatch))
	s.mux.Handle("POST "+routeMonitor, s.instrument(routeMonitor, true, s.handleMonitor))
	s.mux.Handle("DELETE "+routeMonitor, s.instrument(routeMonitor, true, s.handleMonitorDelete))
	s.mux.Handle("GET "+routeMetrics, s.instrument(routeMetrics, false, s.handleMetrics))
	s.mux.Handle("GET "+routeHealthz, s.instrument(routeHealthz, false, s.handleHealthz))
	s.mux.Handle("GET "+routeReadyz, s.instrument(routeReadyz, false, s.handleReadyz))
	s.ready.Store(true)
	return s, nil
}

// Handler returns the service's routes. /debug/pprof is deliberately not
// here; cmd/rfidserved mounts it on its own mux so the library stays free
// of profiling side effects.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the estimation metrics sink (for tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Requests exposes the request metrics sink (for tests and embedders).
func (s *Server) Requests() *obs.RequestRegistry { return s.req }

// saltBlock is how many sequence numbers one checkpoint reservation
// covers: the durability write lands once per block, not once per salt,
// and a crash wastes at most one block of (never-issued) numbers.
const saltBlock = 1024

// nextSalt derives the session salt for a request that did not pin one:
// a pure function of (server seed, sequence number), so any response can
// be reproduced from its echoed salt. With a checkpoint store the
// sequence is durable — the salt is not returned until a reservation
// covering its sequence number has been fsynced, so a crash-restarted
// server resumes past every salt it ever acknowledged instead of
// re-issuing them.
func (s *Server) nextSalt() (uint64, error) {
	seq := s.saltSeq.Add(1)
	if s.ckpt != nil && seq > s.saltReserved.Load() {
		s.saltMu.Lock()
		if seq > s.saltReserved.Load() {
			next := ((seq / saltBlock) + 1) * saltBlock
			if err := s.ckpt.SetSaltSeq(next); err != nil {
				s.saltMu.Unlock()
				return 0, fmt.Errorf("serve: salt reservation: %w", err)
			}
			s.saltReserved.Store(next)
		}
		s.saltMu.Unlock()
	}
	return xrand.Combine(s.cfg.Seed, seq), nil
}

// Shutdown drains the server: intake stops (work endpoints answer 503,
// /readyz goes unready) and every in-flight session runs to completion —
// sessions are bounded in rounds, so the drain terminates on its own. If
// ctx expires first the base context is cancelled, stopping sessions at
// their next round boundary, and ctx.Err() is returned after the cut work
// lands.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		s.adm.awaitIdle(ctx)
	}()
	select {
	case <-idle:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-idle
		return ctx.Err()
	}
}

// awaitIdle blocks until no request holds an execution slot (or ctx
// expires). Polling the slot channel keeps admission lock-free on the
// hot path; the drain path can afford a few ticks.
func (a *admission) awaitIdle(ctx context.Context) {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for len(a.slots) > 0 {
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		}
	}
}
