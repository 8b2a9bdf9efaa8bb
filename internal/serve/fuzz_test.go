package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"rfidest/internal/serve"
)

// FuzzEstimateRequest sends arbitrary bytes as the body of POST
// /v1/estimate and checks the reply contract (see fuzzRoute); every 200
// must decode into an EstimateResponse with a finite estimate.
func FuzzEstimateRequest(f *testing.F) {
	fuzzRoute(f, []string{
		`{"system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"salt":7}`,
		`{"system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"solo":true}`,
		`{"system":{"n":2000,"synthetic":true},"estimator":"SRC","epsilon":1e-9,"delta":0.05}`,
		`{"system":{"n":2000,"synthetic":true},"estimator":"ZOE","epsilon":0.05,"delta":1e-300}`,
		`{"system":{"n":1000,"seed":3},"epsilon":0.1,"del`,
	}, postBody("/v1/estimate"), func(reply []byte) error {
		var resp serve.EstimateResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return fmt.Errorf("undecodable reply: %v", err)
		}
		return finite(resp.Estimate.N)
	})
}

// FuzzBatchRequest sends arbitrary bytes as the body of POST /v1/batch and
// checks the reply contract (see fuzzRoute); every 200 must decode into a
// BatchResponse whose estimates are all finite.
func FuzzBatchRequest(f *testing.F) {
	fuzzRoute(f, []string{
		`{"jobs":[{"system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"trials":2}],"seed":9}`,
		`{"jobs":[{"system":{"n":1000,"synthetic":true},"estimator":"ZOE","epsilon":0.2,"delta":0.2},` +
			`{"system":{"n":2000},"estimator":"LOF","epsilon":0.2,"delta":0.2,"salt":5}],"interleave":true}`,
		`{"jobs":[{"system":{"n":500,"paperTagHash":true},"estimator":"SRC","epsilon":0.2,"delta":0.2,"retries":1}],"workers":2}`,
		`{"jobs":[{"system":{"n":2000,"synthetic":true},"epsilon":0.1,"delta":0.1,"timeoutMs":1}],"timeoutMs":5}`,
		`{"jobs":[]}`,
		`{"jobs":[{"system":{"n":1000},"epsilon":0.1,"del`,
	}, postBody("/v1/batch"), func(reply []byte) error {
		var resp serve.BatchResponse
		if err := json.Unmarshal(reply, &resp); err != nil || resp.Report == nil {
			return fmt.Errorf("undecodable reply: %v", err)
		}
		for _, jr := range resp.Report.Jobs {
			for _, est := range jr.Estimates {
				if err := finite(est.N); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// FuzzMonitorRequest sends arbitrary bytes as the body of two POST
// /v1/monitor requests (a monitor's first round, then a warm one) and then
// deletes the monitor the body names, or, when it names none, the one the
// raw bytes name, through DELETE /v1/monitor?name=. Every reply follows
// the fuzzRoute contract, and every 200 must decode into a
// MonitorResponse with a finite estimate. Deleting what each input
// created keeps the server's monitor table, which nothing caps, small.
func FuzzMonitorRequest(f *testing.F) {
	fuzzRoute(f, []string{
		`{"name":"dock-3","system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"salt":7}`,
		`{"name":"dock-3","system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"fastRounds":3}`,
		`{"name":"gate","system":{"n":2000,"paperTagHash":true},"epsilon":0.2,"delta":0.2,"fastRounds":1,"timeoutMs":600000}`,
		`{"name":"a b&c=%","system":{"n":50,"synthetic":true},"epsilon":0.05,"delta":0.05}`,
		`{"name":"","system":{"n":1000,"synthetic":true},"epsilon":0.1,"delta":0.1}`,
		`{"name":"x","system":{"n":1000,"synthetic":true},"epsilon":0.1,"delta":0.1,"fastRounds":-1}`,
		`{"name":"dock-3","system":{"n":1000},"epsilon":0.1,"del`,
	}, func(input []byte) []*http.Request {
		name := string(input)
		var req serve.MonitorRequest
		if json.Unmarshal(input, &req) == nil && req.Name != "" {
			name = req.Name
		}
		return []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/monitor", bytes.NewReader(input)),
			httptest.NewRequest(http.MethodPost, "/v1/monitor", bytes.NewReader(input)),
			httptest.NewRequest(http.MethodDelete, "/v1/monitor?name="+url.QueryEscape(name), nil),
		}
	}, func(reply []byte) error {
		var resp serve.MonitorResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return fmt.Errorf("undecodable reply: %v", err)
		}
		return finite(resp.Estimate.N)
	})
}

// postBody sends each fuzz input as the body of a POST to route.
func postBody(route string) func(input []byte) []*http.Request {
	return func(body []byte) []*http.Request {
		return []*http.Request{httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))}
	}
}

// fuzzRoute sends the requests each fuzz input builds, in order, and
// checks the reply contract every route shares: no input reaches the
// middleware's panic status (500), every non-2xx reply carries a JSON
// ErrorResponse, and ok accepts the body of every 200. The server is
// stateless (no checkpoint), and its small MaxSystemN and DefaultTimeout
// keep each input cheap.
func fuzzRoute(f *testing.F, seeds []string, requests func(input []byte) []*http.Request, ok func(reply []byte) error) {
	for _, body := range seeds {
		f.Add([]byte(body))
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.Cleanup(cancel)
	s, err := serve.New(ctx, serve.Config{MaxSystemN: 2000, DefaultTimeout: 100 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, input []byte) {
		for _, req := range requests(input) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch {
			case rec.Code == http.StatusInternalServerError:
				t.Fatalf("500 for %s %s, input %q: %s", req.Method, req.URL, input, rec.Body)
			case rec.Code == http.StatusOK:
				if err := ok(rec.Body.Bytes()); err != nil {
					t.Fatalf("200 for %s %s, input %q: %v (%q)", req.Method, req.URL, input, err, rec.Body)
				}
			case rec.Code < 200 || rec.Code > 299:
				var er serve.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
					t.Fatalf("status %d without a JSON error for %s %s, input %q: %q",
						rec.Code, req.Method, req.URL, input, rec.Body)
				}
			}
		}
	})
}

// finite rejects a NaN or infinite estimate.
func finite(n float64) error {
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return fmt.Errorf("non-finite estimate %v", n)
	}
	return nil
}
