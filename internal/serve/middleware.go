package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rfidest"
)

// RequestLog is one access-log record, handed to Config.LogRequest after
// the response is written.
type RequestLog struct {
	Method  string  `json:"method"`
	Route   string  `json:"route"`
	Status  int     `json:"status"`
	Seconds float64 `json:"seconds"` // 0 when the server has no clock
	Remote  string  `json:"remote,omitempty"`
	Panic   bool    `json:"panic,omitempty"`
}

// statusRecorder captures the status a handler wrote so the middleware can
// meter and log it.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(status int) {
	if !r.wrote {
		r.status = status
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with the serving-layer plumbing: drain
// rejection (work endpoints only), panic isolation, request metrics and
// access logging. Latency is read from the injected clock, so the library
// itself never touches the wall clock.
func (s *Server) instrument(route string, work bool, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var start time.Time
		if s.cfg.Now != nil {
			start = s.cfg.Now()
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		panicked := false
		defer func() {
			if p := recover(); p != nil {
				// Isolate the request: count it, answer 500 if the handler
				// had not committed a response, and keep the process up.
				panicked = true
				s.req.Panicked()
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
				} else {
					rec.status = http.StatusInternalServerError
				}
			}
			var secs float64
			if s.cfg.Now != nil {
				secs = s.cfg.Now().Sub(start).Seconds()
			}
			s.req.Observe(route, rec.status, secs)
			if s.cfg.LogRequest != nil {
				s.cfg.LogRequest(RequestLog{
					Method:  r.Method,
					Route:   route,
					Status:  rec.status,
					Seconds: secs,
					Remote:  r.RemoteAddr,
					Panic:   panicked,
				})
			}
		}()
		if work && s.draining.Load() {
			writeError(rec, http.StatusServiceUnavailable, ErrShuttingDown.Error())
			return
		}
		h(rec, r)
	})
}

// httpStatus maps an estimation or serving error onto its HTTP status.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, rfidest.ErrUnknownEstimator), errors.Is(err, rfidest.ErrSlotLimit),
		errors.Is(err, rfidest.ErrUnsupportedRound):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrMonitorConflict):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //lint:allow errdrop the response is already committed; an encode error here is a dead client
}

// writeError writes the standard error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// decodeJSON reads a bounded, strict JSON body into dst, answering 400
// itself on failure.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	return true
}
