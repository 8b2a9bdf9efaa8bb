package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rfidest"
	"rfidest/internal/fleet"
	"rfidest/internal/obs"
)

// Route labels used for metrics and logging.
const (
	routeEstimate = "/v1/estimate"
	routeBatch    = "/v1/batch"
	routeMonitor  = "/v1/monitor"
	routeMetrics  = "/v1/metrics"
	routeHealthz  = "/healthz"
	routeReadyz   = "/readyz"
)

func validateAccuracy(epsilon, delta float64) error {
	if !(epsilon > 0 && epsilon < 1) {
		return fmt.Errorf("epsilon must be in (0, 1), got %v", epsilon)
	}
	if !(delta > 0 && delta < 1) {
		return fmt.Errorf("delta must be in (0, 1), got %v", delta)
	}
	return nil
}

// estimatorNames is the registry's name set, built once. Both work routes
// refuse other names with 400 before the breaker gate, so a bogus name
// neither feeds a breaker nor leaves one behind.
var estimatorNames = func() map[string]bool {
	names := map[string]bool{}
	for _, name := range rfidest.Estimators() {
		names[name] = true
	}
	return names
}()

// checkEstimator is the client-facing name check behind estimatorNames.
func checkEstimator(name string) error {
	if estimatorNames[name] {
		return nil
	}
	return fmt.Errorf("%w %q (known: %s)", rfidest.ErrUnknownEstimator, name, strings.Join(rfidest.Estimators(), ", "))
}

// requestTimeout resolves a request's TimeoutMs against the server
// default. Negative is a validation error; 0 means "server default"; a
// longer timeout than an enabled default is cut to the default, so no
// request holds its admission slot past it.
func (s *Server) requestTimeout(timeoutMs int) (time.Duration, error) {
	if timeoutMs < 0 {
		return 0, fmt.Errorf("timeoutMs must be non-negative, got %d", timeoutMs)
	}
	def := s.cfg.DefaultTimeout
	if timeoutMs == 0 || (def > 0 && int64(timeoutMs) > def.Milliseconds()) {
		return def, nil
	}
	return time.Duration(timeoutMs) * time.Millisecond, nil
}

// handleEstimate answers POST /v1/estimate: validate, admit, run, respond.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if err := req.System.validate(s.cfg.MaxSystemN); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := validateAccuracy(req.Epsilon, req.Delta); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout, err := s.requestTimeout(req.TimeoutMs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	estimator := req.Estimator
	if estimator == "" {
		estimator = "BFCE"
	}
	if err := checkEstimator(estimator); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.allowEstimator(w, estimator) {
		return
	}
	var salt uint64
	if req.Salt != nil {
		salt = *req.Salt
	} else if salt, err = s.nextSalt(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	ctx, cancel := s.workContext(r, timeout)
	defer cancel()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	est, err := s.systems.get(req.System).Run(ctx,
		rfidest.WithEstimator(estimator),
		rfidest.WithAccuracy(req.Epsilon, req.Delta),
		rfidest.WithSeedSalt(salt),
		rfidest.WithObserver(s.reg))
	if !errors.Is(err, context.Canceled) {
		// A client that went away says nothing about the estimator's
		// health; everything else feeds the breaker.
		s.brk.record(estimator, breakerOutcomeBad(err, est.Saturated))
	}
	if err != nil {
		writeError(w, httpStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{
		Estimate:  est,
		Estimator: estimator,
		Salt:      salt,
	})
}

// workContext bounds one work request: its run stops at the next round
// boundary once the client goes away, the request's timeout (if any)
// expires, or the server's root context is cancelled (New's ctx, or
// Shutdown's drain deadline) — whichever comes first. The slot the
// request holds is therefore released only when its work has stopped.
func (s *Server) workContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), timeout)
	} else {
		ctx, cancel = context.WithCancel(r.Context())
	}
	stop := context.AfterFunc(s.base, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// handleBatch answers POST /v1/batch: the request's jobs run as one fleet
// batch (pooled or interleaved) under a single admission slot.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	// Every trial is a session. Each job's count is checked against what
	// the limit leaves, so no sum of client-given trials can overflow.
	left := s.cfg.MaxBatchSessions
	for _, bj := range req.Jobs {
		n := max(bj.Trials, 1)
		if n > left {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"batch asks for more than %d sessions (one per trial of each job), the server limit",
				s.cfg.MaxBatchSessions))
			return
		}
		left -= n
	}
	timeout, err := s.requestTimeout(req.TimeoutMs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "workers must be non-negative")
		return
	}
	// Gate every distinct estimator in the batch before admission: if any
	// breaker is shedding, queueing the whole batch is doomed work.
	seen := map[string]bool{}
	for i, bj := range req.Jobs {
		name := bj.Estimator
		if name == "" {
			name = "BFCE"
		}
		if err := checkEstimator(name); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("job %d: %v", i, err))
			return
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		if !s.allowEstimator(w, name) {
			return
		}
	}
	jobs := make([]fleet.Job, len(req.Jobs))
	for i, bj := range req.Jobs {
		if err := bj.System.validate(s.cfg.MaxSystemN); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("job %d: %v", i, err))
			return
		}
		if err := validateAccuracy(bj.Epsilon, bj.Delta); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("job %d: %v", i, err))
			return
		}
		if bj.Trials < 0 || bj.Retries < 0 || bj.TimeoutMs < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("job %d: trials, retries and timeoutMs must be non-negative", i))
			return
		}
		estimator := bj.Estimator
		if estimator == "" {
			estimator = "BFCE"
		}
		var opts []rfidest.Option
		if bj.Salt != nil {
			opts = append(opts, rfidest.WithSeedSalt(*bj.Salt))
		}
		if bj.TimeoutMs > 0 {
			opts = append(opts, rfidest.WithTimeout(time.Duration(bj.TimeoutMs)*time.Millisecond))
		}
		if bj.Retries > 0 {
			opts = append(opts, rfidest.WithRetry(bj.Retries, 0))
		}
		jobs[i] = fleet.Job{
			Name:      bj.Name,
			System:    s.systems.get(bj.System),
			Estimator: estimator,
			Epsilon:   bj.Epsilon,
			Delta:     bj.Delta,
			Trials:    bj.Trials,
			Options:   opts,
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}

	ctx, cancel := s.workContext(r, timeout)
	defer cancel()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	rep, err := fleet.Run(ctx, fleet.Config{
		Seed:       seed,
		Workers:    req.Workers,
		Interleave: req.Interleave,
		Observer:   s.reg,
	}, jobs)
	if rep != nil && !errors.Is(err, context.Canceled) {
		for _, jr := range rep.Jobs {
			if jr.Skipped {
				continue
			}
			s.brk.record(jr.Job.Estimator, breakerOutcomeBad(jr.Err, jr.Degraded))
		}
	}
	if err != nil {
		// A cancelled batch still carries its partial report (unstarted
		// jobs marked skipped) next to the error.
		writeJSON(w, httpStatus(err), BatchResponse{Report: rep, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Report: rep})
}

// writeAdmissionError maps an acquire failure, attaching the Retry-After
// hint on overload.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
	}
	writeError(w, status, err.Error())
}

// metricsSnapshot is the JSON form of GET /v1/metrics.
type metricsSnapshot struct {
	Estimation obs.Snapshot        `json:"estimation"`
	HTTP       obs.RequestSnapshot `json:"http"`
}

// handleMetrics answers GET /v1/metrics: expvar-style text by default,
// one JSON document with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, metricsSnapshot{
			Estimation: s.reg.Snapshot(),
			HTTP:       s.req.Snapshot(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.reg.Snapshot().WriteText(w); err != nil {
		return
	}
	s.req.Snapshot().WriteText(w) //lint:allow errdrop same dead-client write path as the line above
}

// handleHealthz answers GET /healthz — pure liveness: 200 for as long as
// the process can answer at all, including while draining. Routing
// decisions (drain, recovery, breakers) belong to /readyz; an orchestrator
// that killed a draining instance on a liveness failure would race the
// drain it is supposed to allow.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers GET /readyz — readiness: 503 until checkpoint
// recovery has completed, while any estimator's circuit breaker is open
// or half-open, and once draining starts; 200 otherwise. Load balancers
// and orchestrators key routing on this, so a degraded instance stops
// receiving traffic without being killed.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case s.brk.open():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "breaker-open")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// allowEstimator consults the estimator's circuit breaker, answering the
// 503 (with a rounded-up Retry-After) itself when the breaker sheds.
func (s *Server) allowEstimator(w http.ResponseWriter, estimator string) bool {
	ok, retryAfter := s.brk.allow(estimator)
	if ok {
		return true
	}
	secs := int(retryAfter / time.Second)
	if secs < 1 || retryAfter%time.Second != 0 {
		secs++ // never hint zero; round partial seconds up
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable, ErrBreakerOpen.Error())
	return false
}

// breakerOutcomeBad classifies one completed run or batch job for the
// breaker: bad means the work itself failed or degraded (5xx-class error,
// or a saturated estimate), never a client-side validation problem.
func breakerOutcomeBad(err error, degraded bool) bool {
	if err != nil {
		return httpStatus(err) >= 500
	}
	return degraded
}

// handleMonitor answers POST /v1/monitor: run the next warm round of the
// named monitoring loop, creating the loop on first use. The round's
// resulting warm state is appended to the checkpoint store before the
// response is written, so an acknowledged round survives any crash.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	var req MonitorRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "monitor name must be non-empty")
		return
	}
	if err := req.System.validate(s.cfg.MaxSystemN); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := validateAccuracy(req.Epsilon, req.Delta); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.FastRounds < 0 {
		writeError(w, http.StatusBadRequest, "fastRounds must be non-negative")
		return
	}
	timeout, err := s.requestTimeout(req.TimeoutMs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.allowEstimator(w, "BFCE") {
		return
	}

	ctx, cancel := s.workContext(r, timeout)
	defer cancel()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	entry, runLock, err := s.monitorEntry(req)
	if err != nil {
		writeError(w, httpStatus(err), err.Error())
		return
	}
	var salt uint64
	if req.Salt != nil {
		salt = *req.Salt
	} else if salt, err = s.nextSalt(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	// One round at a time per monitor: warm state is a temporal chain.
	runLock.Lock()
	defer runLock.Unlock()
	sys := s.systems.get(req.System)
	est, err := entry.mon.Run(ctx, sys,
		rfidest.WithSeedSalt(salt), rfidest.WithObserver(s.reg))
	if !errors.Is(err, context.Canceled) {
		s.brk.record("BFCE", breakerOutcomeBad(err, est.Saturated))
	}
	if err != nil {
		writeError(w, httpStatus(err), err.Error())
		return
	}
	if s.ckpt != nil {
		// Durability before acknowledgement: the response only goes out
		// once the round's warm state would survive a crash.
		rec, err := entry.record()
		if err == nil {
			err = s.ckpt.PutMonitor(req.Name, rec)
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, MonitorResponse{
		Estimate: est,
		Salt:     salt,
		Rounds:   entry.mon.Rounds(),
		Warm:     entry.mon.Snapshot(),
	})
}

// handleMonitorDelete answers DELETE /v1/monitor?name=...: drop the named
// loop and its checkpoint record. Unknown names are a 404.
func (s *Server) handleMonitorDelete(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing name query parameter")
		return
	}
	s.monMu.Lock()
	_, ok := s.mons[name]
	if ok {
		delete(s.mons, name)
		delete(s.monRun, name)
	}
	s.monMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no monitor named %q", name))
		return
	}
	if s.ckpt != nil {
		if err := s.ckpt.DropMonitor(name); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// monitorEntry returns the named monitor and its run lock, creating both
// on first use. An existing entry with a different configuration is a
// conflict — rebinding warm state to a new deployment would poison it —
// and a new name past MaxMonitors is refused before anything is created
// or checkpointed.
func (s *Server) monitorEntry(req MonitorRequest) (*servedMonitor, *sync.Mutex, error) {
	s.monMu.Lock()
	defer s.monMu.Unlock()
	if entry, ok := s.mons[req.Name]; ok {
		if !entry.matches(req) {
			return nil, nil, fmt.Errorf("%w: %q", ErrMonitorConflict, req.Name)
		}
		return entry, s.monRun[req.Name], nil
	}
	if len(s.mons) >= MaxMonitors {
		return nil, nil, fmt.Errorf("%w: %d monitors, delete one to create %q", ErrMonitorLimit, len(s.mons), req.Name)
	}
	mon, err := rfidest.NewMonitor(req.Epsilon, req.Delta, req.FastRounds)
	if err != nil {
		return nil, nil, err
	}
	entry := &servedMonitor{
		spec:       req.System,
		epsilon:    req.Epsilon,
		delta:      req.Delta,
		fastRounds: req.FastRounds,
		mon:        mon,
	}
	s.mons[req.Name] = entry
	s.monRun[req.Name] = &sync.Mutex{}
	return entry, s.monRun[req.Name], nil
}
