package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"rfidest"
	"rfidest/internal/fleet"
	"rfidest/internal/goldengrid"
	"rfidest/internal/serve"
)

// specFor maps a goldengrid system key onto its wire spec — the same
// deployments, described the way an HTTP client would describe them.
func specFor(t *testing.T, key string) serve.SystemSpec {
	t.Helper()
	switch key {
	case "tag-n20000-seed42":
		return serve.SystemSpec{N: 20000, Seed: 42}
	case "synthetic-n50000-seed7":
		return serve.SystemSpec{N: 50000, Seed: 7, Synthetic: true}
	case "noisy-n10000-seed9":
		return serve.SystemSpec{N: 10000, Seed: 9, FalseBusy: 0.01, FalseIdle: 0.02}
	case "paperhash-n20000-seed42":
		return serve.SystemSpec{N: 20000, Seed: 42, PaperTagHash: true}
	default:
		t.Fatalf("no spec mapping for goldengrid system %q", key)
		return serve.SystemSpec{}
	}
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := serve.New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body to url and returns the status and response bytes.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestEstimateGoldengridReplay replays the full golden grid through
// POST /v1/estimate and requires every response bit-identical to the
// pinned in-process result.
func TestEstimateGoldengridReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid over HTTP is not short")
	}
	_, ts := newTestServer(t, serve.Config{})
	for _, c := range goldengrid.Cases() {
		salt := c.Salt
		status, body := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
			System:    specFor(t, c.System),
			Estimator: c.Estimator,
			Epsilon:   goldengrid.Epsilon,
			Delta:     goldengrid.Delta,
			Salt:      &salt,
		})
		if status != http.StatusOK {
			t.Fatalf("%s/%s salt %#x: status %d: %s", c.System, c.Estimator, c.Salt, status, body)
		}
		var resp serve.EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != c.Want {
			t.Errorf("%s/%s salt %#x drifted over HTTP:\n got  %+v\n want %+v",
				c.System, c.Estimator, c.Salt, resp.Estimate, c.Want)
		}
		if resp.Salt != c.Salt {
			t.Errorf("response did not echo the pinned salt: got %#x want %#x", resp.Salt, c.Salt)
		}
		if resp.Batched {
			t.Errorf("%s/%s salt %#x: response claims it was batched", c.System, c.Estimator, c.Salt)
		}
	}
}

// TestBatchGoldengridReplay replays the grid as one POST /v1/batch in each
// scheduling mode; per-job pinned salts make every estimate comparable to
// its golden value.
func TestBatchGoldengridReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid over HTTP is not short")
	}
	cases := goldengrid.Cases()
	_, ts := newTestServer(t, serve.Config{MaxBatchSessions: len(cases)})
	jobs := make([]serve.BatchJob, len(cases))
	for i, c := range cases {
		salt := c.Salt
		jobs[i] = serve.BatchJob{
			Name:      fmt.Sprintf("%s/%s/%#x", c.System, c.Estimator, c.Salt),
			System:    specFor(t, c.System),
			Estimator: c.Estimator,
			Epsilon:   goldengrid.Epsilon,
			Delta:     goldengrid.Delta,
			Salt:      &salt,
		}
	}
	for _, interleave := range []bool{false, true} {
		status, body := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{
			Jobs: jobs, Seed: 7, Interleave: interleave,
		})
		if status != http.StatusOK {
			t.Fatalf("interleave=%v: status %d: %.300s", interleave, status, body)
		}
		var resp serve.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Report == nil || len(resp.Report.Jobs) != len(cases) {
			t.Fatalf("interleave=%v: malformed report: %.300s", interleave, body)
		}
		if interleave && resp.Report.SchedRounds == 0 {
			t.Error("interleaved batch reported zero scheduler rounds")
		}
		for i, jr := range resp.Report.Jobs {
			if jr.Failure != "" {
				t.Errorf("interleave=%v: job %d failed: %s", interleave, i, jr.Failure)
				continue
			}
			if len(jr.Estimates) != 1 || jr.Estimates[0] != cases[i].Want {
				t.Errorf("interleave=%v: job %d drifted over HTTP:\n got  %+v\n want %+v",
					interleave, i, jr.Estimates, cases[i].Want)
			}
		}
	}
}

// TestAssignedSaltsDeterministic: two servers built with the same seed
// assign the same salt to their first request and return the same
// estimate — and replaying that echoed salt explicitly reproduces it.
func TestAssignedSaltsDeterministic(t *testing.T) {
	req := serve.EstimateRequest{
		System:  serve.SystemSpec{N: 5000, Seed: 3, Synthetic: true},
		Epsilon: 0.1, Delta: 0.1,
	}
	var first serve.EstimateResponse
	for run := 0; run < 2; run++ {
		_, ts := newTestServer(t, serve.Config{Seed: 99})
		status, body := postJSON(t, ts.URL+"/v1/estimate", req)
		if status != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", run, status, body)
		}
		var resp serve.EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = resp
			// Replaying the echoed salt reproduces the estimate.
			pinned := req
			pinned.Salt = &resp.Salt
			_, body := postJSON(t, ts.URL+"/v1/estimate", pinned)
			var replay serve.EstimateResponse
			if err := json.Unmarshal(body, &replay); err != nil {
				t.Fatal(err)
			}
			if replay.Estimate != resp.Estimate {
				t.Errorf("echoed salt did not replay:\n got  %+v\n want %+v", replay.Estimate, resp.Estimate)
			}
			continue
		}
		if resp.Salt != first.Salt || resp.Estimate != first.Estimate {
			t.Errorf("same-seed servers diverged:\n got  %+v\n want %+v", resp, first)
		}
	}
}

// TestEstimateValidation: malformed requests map to 400 with an error
// body, including unknown estimators via the shared sentinel.
func TestEstimateValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	url := ts.URL + "/v1/estimate"
	good := serve.SystemSpec{N: 100, Synthetic: true}
	for name, req := range map[string]serve.EstimateRequest{
		"zero epsilon":                 {System: good, Delta: 0.1},
		"epsilon one":                  {System: good, Epsilon: 1, Delta: 0.1},
		"zero n":                       {System: serve.SystemSpec{}, Epsilon: 0.1, Delta: 0.1},
		"huge n":                       {System: serve.SystemSpec{N: 1 << 40}, Epsilon: 0.1, Delta: 0.1},
		"bad distribution":             {System: serve.SystemSpec{N: 100, Distribution: "zipf"}, Epsilon: 0.1, Delta: 0.1},
		"hash conflict":                {System: serve.SystemSpec{N: 100, PaperTagHash: true, IDHash: true}, Epsilon: 0.1, Delta: 0.1},
		"negative timeout":             {System: good, Epsilon: 0.1, Delta: 0.1, TimeoutMs: -1},
		"unknown estimator":            {System: good, Epsilon: 0.1, Delta: 0.1, Estimator: "NOPE"},
		"accuracy past the slot limit": {System: good, Epsilon: 1e-9, Delta: 0.05, Estimator: "SRC"},
	} {
		status, body := postJSON(t, url, req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, body)
			continue
		}
		var er serve.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: malformed error body %s", name, body)
		}
	}
	// Unknown JSON fields are rejected: the wire schema is frozen, so a
	// client still sending the retired "solo" flag gets a 400.
	for _, body := range []string{
		`{"system":{"n":100},"epsilon":0.1,"delta":0.1,"bogus":1}`,
		`{"system":{"n":100},"epsilon":0.1,"delta":0.1,"solo":true}`,
	} {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field in %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestBatchSessionLimit: a batch counts its sessions, one per trial of
// each job, against the server's limit, so a 109-byte body asking for
// 80,000 trials and a 10-minute timeout is refused before any session
// runs, while a batch of exactly the limit runs.
func TestBatchSessionLimit(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	body := `{"jobs":[{"system":{"n":1000,"synthetic":true},"epsilon":0.1,"delta":0.1,"trials":80000}],"timeoutMs":600000}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var er serve.ErrorResponse
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &er) != nil || er.Error == "" {
		t.Fatalf("80,000 trials: status %d, body %.300s; want 400 with a JSON error", resp.StatusCode, out)
	}
	if n := s.Registry().Snapshot().Sessions; n != 0 {
		t.Fatalf("refused batch ran %d sessions", n)
	}
	spec := serve.SystemSpec{N: 1000, Synthetic: true}
	for _, c := range []struct {
		trials []int
		status int
	}{
		{[]int{32, 0, 31}, http.StatusOK}, // 64 sessions: a job of 0 trials runs one
		{[]int{32, 1, 32}, http.StatusBadRequest},
		{[]int{math.MaxInt, math.MaxInt}, http.StatusBadRequest},
	} {
		var jobs []serve.BatchJob
		for _, n := range c.trials {
			jobs = append(jobs, serve.BatchJob{System: spec, Epsilon: 0.2, Delta: 0.2, Trials: n})
		}
		if status, out := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{Jobs: jobs}); status != c.status {
			t.Errorf("trials %v: status %d, want %d: %.300s", c.trials, status, c.status, out)
		}
	}
	if n := s.Registry().Snapshot().Sessions; n != 64 {
		t.Errorf("ran %d sessions, want the 64 of the batch at the limit", n)
	}
}

// slowRequest is a pinned-salt estimate that holds its admission slot for
// a few hundred milliseconds: ZOE sends one single-slot frame per
// accurate-phase slot, and each frame hashes every tag of a materialized
// population.
func slowRequest(salt uint64) serve.EstimateRequest {
	return serve.EstimateRequest{
		System:    serve.SystemSpec{N: 20000, Seed: 3},
		Estimator: "ZOE",
		Epsilon:   0.1, Delta: 0.1,
		Salt: &salt,
	}
}

// TestBackpressure floods a 1-slot, 1-waiter server with slow requests and
// requires at least one shed request (429 with Retry-After) while every
// admitted request still answers correctly.
func TestBackpressure(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		MaxInFlight: 1, QueueDepth: 1, RetryAfterSeconds: 3,
	})
	req := slowRequest(5)
	const flood = 12
	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, flood)
	b, _ := json.Marshal(req)
	for i := 0; i < flood; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(b))
			if err != nil {
				results <- outcome{status: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	var ok, shed int
	for i := 0; i < flood; i++ {
		o := <-results
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter != "3" {
				t.Errorf("429 without the configured Retry-After: %q", o.retryAfter)
			}
		default:
			t.Errorf("unexpected status %d", o.status)
		}
	}
	if ok == 0 {
		t.Error("no request was admitted under flood")
	}
	if shed == 0 {
		t.Error("a 1-slot 1-waiter server admitted a 12-request flood without shedding")
	}
}

// TestDeadline504: a 1ms budget cannot finish ZOE's hundreds of
// single-slot rounds over a materialized population; the session stops at
// a round boundary, the request answers 504 and the server leaks no
// goroutines.
func TestDeadline504(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, serve.Config{})
	req := slowRequest(7)
	req.TimeoutMs = 1
	status, body := postJSON(t, ts.URL+"/v1/estimate", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, body)
	}
	// The cut session must unwind completely: poll until the goroutine
	// count settles back to the pre-server baseline. Closing the httptest
	// server reaps its keep-alives.
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after deadline expiry: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDrain: a slow request in flight survives Shutdown — the
// drain waits for its session and answers it correctly — while new work
// and /readyz flip to 503.
func TestShutdownDrain(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	sys := rfidest.NewSystem(20000, rfidest.WithSeed(3))
	want, err := sys.Run(context.Background(), rfidest.WithEstimator("ZOE"),
		rfidest.WithAccuracy(0.1, 0.1), rfidest.WithSeedSalt(11))
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status int
		body   []byte
	}
	parked := make(chan answer, 1)
	go func() {
		status, body := postJSON(t, ts.URL+"/v1/estimate", slowRequest(11))
		parked <- answer{status, body}
	}()
	// Wait until the request holds its admission slot (its session is now
	// running).
	for i := 0; ; i++ {
		if s.Requests().Snapshot().Inflight == 1 {
			break
		}
		if i > 500 {
			t.Fatal("request never took an admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	a := <-parked
	if a.status != http.StatusOK {
		t.Fatalf("parked request: status %d: %s", a.status, a.body)
	}
	var resp serve.EstimateResponse
	if err := json.Unmarshal(a.body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Estimate != want {
		t.Errorf("drained request drifted:\n got  %+v\n want %+v", resp.Estimate, want)
	}
	// The drained server refuses new work and reports itself unhealthy.
	if status, _ := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
		System: serve.SystemSpec{N: 100, Synthetic: true}, Epsilon: 0.1, Delta: 0.1,
	}); status != http.StatusServiceUnavailable {
		t.Errorf("post-drain estimate: status %d, want 503", status)
	}
	// Liveness stays green — the process is still answering — while
	// readiness flips so load balancers stop routing here.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("post-drain healthz: status %d, want 200 (liveness)", hr.StatusCode)
	}
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain readyz: status %d, want 503", rr.StatusCode)
	}
}

// TestShutdownDeadlineCutsSessions: when the drain deadline expires first,
// Shutdown cancels the server's root context and an in-flight session
// stops at its next round boundary — the request answers 503 instead of
// running to completion after the drain has given up on it.
func TestShutdownDeadlineCutsSessions(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	type answer struct {
		status int
		body   []byte
	}
	inflight := make(chan answer, 1)
	go func() {
		status, body := postJSON(t, ts.URL+"/v1/estimate", slowRequest(13))
		inflight <- answer{status, body}
	}()
	for i := 0; s.Requests().Snapshot().Inflight != 1; i++ {
		if i > 500 {
			t.Fatal("request never took an admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past its deadline returned %v, want DeadlineExceeded", err)
	}
	if a := <-inflight; a.status != http.StatusServiceUnavailable {
		t.Errorf("cut request: status %d, want 503: %s", a.status, a.body)
	}
}

// TestMetricsEndpoint: after traffic, the text export carries both the
// estimation and the request sections, and the JSON form parses.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	if status, body := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
		System: serve.SystemSpec{N: 2000, Seed: 3, Synthetic: true}, Epsilon: 0.1, Delta: 0.1,
	}); status != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"obs.sessions 1",
		"obs.http.route./v1/estimate.requests 1",
		"obs.http.route./v1/estimate.status2xx 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text metrics missing %q:\n%.600s", want, text)
		}
	}
	if strings.Contains(string(text), ".batched") {
		t.Errorf("text metrics still export a batched counter:\n%.600s", text)
	}
	jr, err := http.Get(ts.URL + "/v1/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := io.ReadAll(jr.Body)
	jr.Body.Close()
	var doc struct {
		Estimation json.RawMessage `json:"estimation"`
		HTTP       json.RawMessage `json:"http"`
	}
	if err := json.Unmarshal(jb, &doc); err != nil || doc.Estimation == nil || doc.HTTP == nil {
		t.Errorf("JSON metrics malformed (err=%v): %.300s", err, jb)
	}
}

// TestCoalescing: concurrent pinned-salt requests — the traffic a
// micro-batcher once coalesced into shared fleet batches — each run their
// own session side by side on one cached System, and each is bit-identical
// to its direct in-process run.
func TestCoalescing(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	sys := rfidest.NewSystem(5000, rfidest.WithSynthetic(), rfidest.WithSeed(3))
	const k = 8
	want := make([]rfidest.Estimate, k)
	for i := range want {
		var err error
		want[i], err = sys.Run(context.Background(), rfidest.WithAccuracy(0.1, 0.1), rfidest.WithSeedSalt(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	type got struct {
		i    int
		resp serve.EstimateResponse
		err  error
	}
	results := make(chan got, k)
	for i := 0; i < k; i++ {
		go func(i int) {
			salt := uint64(100 + i)
			status, body := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
				System:  serve.SystemSpec{N: 5000, Seed: 3, Synthetic: true},
				Epsilon: 0.1, Delta: 0.1, Salt: &salt,
			})
			var resp serve.EstimateResponse
			err := json.Unmarshal(body, &resp)
			if status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, body)
			}
			results <- got{i, resp, err}
		}(i)
	}
	for i := 0; i < k; i++ {
		g := <-results
		if g.err != nil {
			t.Fatalf("request %d: %v", g.i, g.err)
		}
		if g.resp.Estimate != want[g.i] {
			t.Errorf("request %d drifted under concurrency:\n got  %+v\n want %+v", g.i, g.resp.Estimate, want[g.i])
		}
	}
}

// TestBatchEndpointMatchesInProcessFleet: a /v1/batch request (no pinned
// salts) reproduces the in-process fleet.Run report for the same (seed,
// jobs) — the cross-process determinism contract. A job's retries field
// is rfidest.WithRetry in its Options; BFCE saturates on a one-tag system,
// so that job's retries do run.
func TestBatchEndpointMatchesInProcessFleet(t *testing.T) {
	sys := rfidest.NewSystem(5000, rfidest.WithSynthetic(), rfidest.WithSeed(3))
	lone := rfidest.NewSystem(1, rfidest.WithSynthetic(), rfidest.WithSeed(3))
	rep, err := fleet.Run(context.Background(), fleet.Config{Seed: 7}, []fleet.Job{
		{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 3},
		{System: sys, Estimator: "ZOE-batched", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		{System: lone, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 3,
			Options: []rfidest.Option{rfidest.WithRetry(2, 0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[2].Retries == 0 {
		t.Fatal("the one-tag job ran no retries; it no longer exercises the retries field")
	}
	_, ts := newTestServer(t, serve.Config{})
	spec := serve.SystemSpec{N: 5000, Seed: 3, Synthetic: true}
	status, body := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{
		Seed: 7,
		Jobs: []serve.BatchJob{
			{System: spec, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 3},
			{System: spec, Estimator: "ZOE-batched", Epsilon: 0.1, Delta: 0.1, Trials: 2},
			{System: serve.SystemSpec{N: 1, Seed: 3, Synthetic: true}, Estimator: "BFCE",
				Epsilon: 0.1, Delta: 0.1, Trials: 3, Retries: 2},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, jr := range resp.Report.Jobs {
		if jr.Retries != rep.Jobs[i].Retries || jr.AirSeconds != rep.Jobs[i].AirSeconds {
			t.Errorf("job %d: retries/air %d/%v over HTTP, %d/%v in process",
				i, jr.Retries, jr.AirSeconds, rep.Jobs[i].Retries, rep.Jobs[i].AirSeconds)
		}
		if len(jr.Estimates) != len(rep.Jobs[i].Estimates) {
			t.Fatalf("job %d: %d estimates over HTTP, %d in process", i, len(jr.Estimates), len(rep.Jobs[i].Estimates))
		}
		for k := range jr.Estimates {
			if jr.Estimates[k] != rep.Jobs[i].Estimates[k] {
				t.Errorf("job %d trial %d drifted:\n got  %+v\n want %+v", i, k, jr.Estimates[k], rep.Jobs[i].Estimates[k])
			}
		}
	}
}

// TestUnsupportedRoundIsAClientError sends protocols a paper-hash system
// cannot run — SRC's ⌈7.72/ε²⌉-slot frames and ZOE's 1-slot frames, which
// the paper's tag hash cannot address — through both work routes. The
// estimate answers 400; the batch job fails with the same 4xx-class error
// in its report, next to its sibling job's result, as a slot-limit job
// does. Neither feeds a breaker (a 2-outcome window would trip on two bad
// outcomes), and the server keeps answering.
func TestUnsupportedRoundIsAClientError(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Now:     time.Now,
		Breaker: serve.BreakerConfig{Window: 2, MinSamples: 2},
	})
	paper := serve.SystemSpec{N: 2000, Seed: 3, PaperTagHash: true}
	for i := 0; i < 3; i++ {
		status, body := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
			System: paper, Estimator: "SRC", Epsilon: 0.2, Delta: 0.2,
		})
		if status != http.StatusBadRequest || !strings.Contains(string(body), "unsupported round") {
			t.Fatalf("estimate %d: status %d, want 400 naming the unsupported round (%s)", i, status, body)
		}

		status, body = postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{
			Workers: 2,
			Jobs: []serve.BatchJob{
				{System: serve.SystemSpec{N: 2000, Seed: 3}, Estimator: "BFCE", Epsilon: 0.2, Delta: 0.2},
				{System: paper, Estimator: "ZOE", Epsilon: 0.2, Delta: 0.2, Trials: 2},
			},
		})
		var br serve.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil || status != http.StatusOK || br.Report == nil {
			t.Fatalf("batch %d: status %d (%s)", i, status, body)
		}
		if jobs := br.Report.Jobs; len(jobs) != 2 || jobs[0].Failure != "" ||
			!strings.Contains(jobs[1].Failure, rfidest.ErrUnsupportedRound.Error()) {
			t.Fatalf("batch %d: want job 0 served and job 1 refused as an unsupported round, got %+v", i, jobs)
		}
	}

	for _, est := range []string{"SRC", "ZOE"} {
		status, body := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
			System: serve.SystemSpec{N: 2000, Seed: 3}, Estimator: est, Epsilon: 0.2, Delta: 0.2,
		})
		if status != http.StatusOK {
			t.Fatalf("%s on an ideal-hash system after the refusals: status %d (%s)", est, status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d after the refusals, want 200 (no breaker open)", resp.StatusCode)
	}
}

// TestServedEstimateAllocs caps the heap allocations of one served
// estimate — client request, transport, handler and the BFCE session,
// through httptest — at the count measured once frames stopped
// allocating. Under -race, sync.Pool drops put-back buffers at random, so
// that build gets a ceiling above its observed spread (126-132).
func TestServedEstimateAllocs(t *testing.T) {
	ceiling := 119.0
	if raceDetector {
		ceiling = 140
	}
	_, ts := newTestServer(t, serve.Config{})
	salt := uint64(1)
	body, err := json.Marshal(serve.EstimateRequest{
		System:  serve.SystemSpec{N: 10000, Seed: 3, Synthetic: true},
		Epsilon: 0.1, Delta: 0.1, Salt: &salt,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	got := testing.AllocsPerRun(20, func() {
		resp, err := client.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	if got > ceiling {
		t.Errorf("%v allocations per served estimate, ceiling %v", got, ceiling)
	}
}
