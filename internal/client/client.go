// Package client is the resilient HTTP client for the rfidest serving
// API (internal/serve): typed wrappers over /v1/estimate, /v1/batch and
// /v1/monitor with capped exponential backoff, full jitter, Retry-After
// honoring, and optional hedged estimates.
//
// # Retry policy
//
// A call retries on transport errors and on the transient status codes
// (429, 500, 502, 503, 504) up to Config.Retries extra attempts. The
// wait before attempt k is drawn uniformly from [0, min(BackoffCap,
// BackoffBase·2^k)) — "full jitter", so a shed fleet of clients does not
// re-arrive in lockstep. When the server supplied a Retry-After header
// (admission control and the circuit breakers both do) the hint wins:
// the client sleeps max(hint, draw), never less than the server asked.
// Every wait is context-bounded; cancellation interrupts it immediately.
//
// The jitter stream is seeded: draws are a pure function of (Config.Seed,
// call sequence, attempt), so a replayed client schedules the same waits.
// Non-transient statuses surface as *StatusError without retry.
//
// # Hedging
//
// With HedgeDelay > 0, Estimate calls that pin a salt are hedged: if the
// primary request has not answered within the delay, an identical second
// request is issued and the first success wins. A pinned salt makes the
// request idempotent and its answer deterministic, which is also the
// integrity check — the straggling leg gets one more HedgeDelay to land
// its answer, and when both legs succeed they must agree bit-identically;
// disagreement surfaces as ErrHedgeMismatch rather than silently returning
// one of two different answers. A straggler that outstays the grace window
// is cancelled, so a stalled connection never pins the call down. Requests
// without a pinned salt are never hedged (each would be a different
// session).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rfidest/internal/serve"
	"rfidest/internal/xrand"
)

// ErrHedgeMismatch reports that both legs of a hedged estimate succeeded
// with different answers — a determinism violation on the server side (or
// a corrupting middlebox), never something to paper over.
var ErrHedgeMismatch = errors.New("client: hedged replies disagree for the same pinned salt")

// StatusError is a non-2xx reply the retry policy classified as terminal
// (or transient but out of attempts). Message carries the server's error
// body when it sent one.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("client: server answered %d", e.Status)
}

// Config tunes a Client. The zero value of every field selects the
// default in parentheses.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080" (required).
	BaseURL string
	// HTTP is the transport (a plain &http.Client{}). Chaos tests inject a
	// fault-wrapped transport here.
	HTTP *http.Client
	// Seed roots the jitter stream (1). Equal seeds draw equal backoff
	// schedules.
	Seed uint64
	// Retries is how many extra attempts follow a failed first one (3).
	// Negative disables retrying entirely.
	Retries int
	// BackoffBase and BackoffCap bound the exponential wait: attempt k
	// draws from [0, min(cap, base·2^k)) (100ms, 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeDelay, when positive, hedges pinned-salt Estimate calls: a
	// second identical request launches after this long without an answer
	// (0: hedging off).
	HedgeDelay time.Duration
}

func (c *Config) applyDefaults() {
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
}

// Stats is a point-in-time copy of the client's counters.
type Stats struct {
	// Calls is completed API calls; Attempts is HTTP requests issued (>=
	// Calls once retries or hedges happen).
	Calls    int64 `json:"calls"`
	Attempts int64 `json:"attempts"`
	// Retries counts re-issued attempts; Shed counts 429/503 replies
	// observed (each also retried when attempts remain).
	Retries int64 `json:"retries"`
	Shed    int64 `json:"shed"`
	// Hedges counts hedge legs launched; HedgeWins counts hedged calls the
	// hedge leg answered first.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedgeWins"`
}

// Client is a resilient rfidest API client. Safe for concurrent use.
type Client struct {
	cfg Config
	seq atomic.Uint64 // call sequence: keys the per-call jitter stream

	calls, attempts, retries, shed, hedges, hedgeWins atomic.Int64
}

// New builds a Client.
func New(cfg Config) *Client {
	cfg.applyDefaults()
	return &Client{cfg: cfg}
}

// Stats returns a copy of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Calls:     c.calls.Load(),
		Attempts:  c.attempts.Load(),
		Retries:   c.retries.Load(),
		Shed:      c.shed.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
	}
}

// Estimate calls POST /v1/estimate, hedging when configured and the
// request pins a salt.
func (c *Client) Estimate(ctx context.Context, req serve.EstimateRequest) (serve.EstimateResponse, error) {
	defer c.calls.Add(1)
	var resp serve.EstimateResponse
	if c.cfg.HedgeDelay > 0 && req.Salt != nil {
		return c.hedgedEstimate(ctx, req)
	}
	err := c.call(ctx, "/v1/estimate", req, &resp)
	return resp, err
}

// Monitor calls POST /v1/monitor: one warm round of the named loop.
func (c *Client) Monitor(ctx context.Context, req serve.MonitorRequest) (serve.MonitorResponse, error) {
	defer c.calls.Add(1)
	var resp serve.MonitorResponse
	err := c.call(ctx, "/v1/monitor", req, &resp)
	return resp, err
}

// call runs one retrying request leg end to end: marshal once, then
// attempt/backoff until success, a terminal status, attempts run out, or
// ctx ends. (The Calls counter belongs to the public wrappers — a hedged
// call is one call but two legs.)
func (c *Client) call(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("client: marshal request: %w", err)
	}
	seq := c.seq.Add(1)
	rng := xrand.NewStream(c.cfg.Seed, 0xc11e, seq)
	var last error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		result, retryAfter, err := c.attempt(ctx, path, body, resp)
		switch result {
		case outcomeOK:
			return nil
		case outcomeTerminal:
			return err
		}
		last = err
		if attempt >= c.cfg.Retries {
			return last
		}
		if err := c.wait(ctx, rng, attempt, retryAfter); err != nil {
			return errors.Join(err, last)
		}
	}
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeTerminal
	outcomeRetry
)

// attempt issues one HTTP request. retryAfter is the server's hint (0 when
// absent) and only meaningful for outcomeRetry.
func (c *Client) attempt(ctx context.Context, path string, body []byte, out any) (outcome, time.Duration, error) {
	c.attempts.Add(1)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return outcomeTerminal, 0, fmt.Errorf("client: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.cfg.HTTP.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return outcomeTerminal, 0, ctx.Err()
		}
		return outcomeRetry, 0, fmt.Errorf("client: %w", err)
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(hresp.Body)
	if err != nil {
		// A truncated or reset body is as transient as a refused dial.
		if ctx.Err() != nil {
			return outcomeTerminal, 0, ctx.Err()
		}
		return outcomeRetry, 0, fmt.Errorf("client: read response: %w", err)
	}
	if hresp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			return outcomeRetry, 0, fmt.Errorf("client: corrupt response body: %w", err)
		}
		return outcomeOK, 0, nil
	}
	serr := &StatusError{Status: hresp.StatusCode, Message: errorBody(data)}
	if hresp.StatusCode == http.StatusTooManyRequests || hresp.StatusCode == http.StatusServiceUnavailable {
		c.shed.Add(1)
	}
	if !transientStatus(hresp.StatusCode) {
		return outcomeTerminal, 0, serr
	}
	return outcomeRetry, retryAfterHint(hresp), serr
}

// wait sleeps the full-jitter backoff for attempt, raised to the server's
// Retry-After hint when that is longer. The wait is context-bounded and
// never uses time.Sleep — cancellation interrupts it immediately.
func (c *Client) wait(ctx context.Context, rng *xrand.Rand, attempt int, retryAfter time.Duration) error {
	ceil := c.cfg.BackoffBase << uint(attempt)
	if ceil > c.cfg.BackoffCap || ceil <= 0 {
		ceil = c.cfg.BackoffCap
	}
	d := time.Duration(rng.Uint64n(uint64(ceil)))
	if retryAfter > d {
		d = retryAfter
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// transientStatus reports whether a status is worth retrying: overload
// (429), breaker/drain sheds (503), and the gateway-ish 5xx family. Other
// 4xx are the request's fault and other 5xx would repeat.
func transientStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfterHint parses the Retry-After header's delta-seconds form; the
// HTTP-date form (which would need a wall-clock read) falls back to 0 and
// lets the jittered backoff decide.
func retryAfterHint(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// errorBody extracts the server's error message from a non-2xx body.
func errorBody(data []byte) string {
	var e serve.ErrorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(bytes.TrimSpace(data))
}

// hedgedEstimate races two retrying legs of the same pinned-salt request.
// The second leg launches HedgeDelay after the first; the first success
// is the answer. The straggler then gets one more HedgeDelay to land its
// own answer — when it does, the two must agree bit-identically — before
// it is cancelled, so a stalled leg never pins the call down and a
// completed one never escapes the integrity check.
func (c *Client) hedgedEstimate(ctx context.Context, req serve.EstimateRequest) (serve.EstimateResponse, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type legResult struct {
		resp serve.EstimateResponse
		err  error
		leg  int
	}
	results := make(chan legResult, 2)
	run := func(leg int) {
		var resp serve.EstimateResponse
		err := c.call(hctx, "/v1/estimate", req, &resp)
		results <- legResult{resp, err, leg}
	}
	go run(0)

	var first legResult
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()
	select {
	case first = <-results:
		// Primary answered inside the delay: no hedge needed.
		return first.resp, first.err
	case <-timer.C:
		c.hedges.Add(1)
		go run(1)
		first = <-results
	}

	// Give the straggler one grace window to finish, then cut it loose.
	var second legResult
	grace := time.NewTimer(c.cfg.HedgeDelay)
	defer grace.Stop()
	select {
	case second = <-results:
	case <-grace.C:
		cancel()
		second = <-results
	}
	a, b := first, second
	if a.err != nil && b.err == nil {
		a, b = b, a // the success (if any) leads
	}
	if a.err != nil {
		return a.resp, a.err // both failed; report the first failure
	}
	if b.err == nil && (a.resp.Estimate != b.resp.Estimate || a.resp.Salt != b.resp.Salt) {
		return serve.EstimateResponse{}, fmt.Errorf("%w: salt %#x: %+v vs %+v",
			ErrHedgeMismatch, *req.Salt, a.resp.Estimate, b.resp.Estimate)
	}
	if a.leg == 1 {
		c.hedgeWins.Add(1)
	}
	return a.resp, nil
}
