package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rfidest/internal/serve"
)

// FuzzEstimateRequest sends arbitrary bytes as the body of POST
// /v1/estimate and checks the reply contract (see fuzzRoute); every 200
// must decode into an EstimateResponse with a finite estimate.
func FuzzEstimateRequest(f *testing.F) {
	fuzzRoute(f, "/v1/estimate", []string{
		`{"system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"salt":7}`,
		`{"system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"solo":true}`,
		`{"system":{"n":2000,"synthetic":true},"estimator":"SRC","epsilon":1e-9,"delta":0.05}`,
		`{"system":{"n":2000,"synthetic":true},"estimator":"ZOE","epsilon":0.05,"delta":1e-300}`,
		`{"system":{"n":1000,"seed":3},"epsilon":0.1,"del`,
	}, func(reply []byte) error {
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
	fuzzRoute(f, "/v1/batch", []string{
		`{"jobs":[{"system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"trials":2}],"seed":9}`,
		`{"jobs":[{"system":{"n":1000,"synthetic":true},"estimator":"ZOE","epsilon":0.2,"delta":0.2},` +
			`{"system":{"n":2000},"estimator":"LOF","epsilon":0.2,"delta":0.2,"salt":5}],"interleave":true}`,
		`{"jobs":[{"system":{"n":500,"paperTagHash":true},"estimator":"SRC","epsilon":0.2,"delta":0.2,"retries":1}],"workers":2}`,
		`{"jobs":[{"system":{"n":2000,"synthetic":true},"epsilon":0.1,"delta":0.1,"timeoutMs":1}],"timeoutMs":5}`,
		`{"jobs":[]}`,
		`{"jobs":[{"system":{"n":1000},"epsilon":0.1,"del`,
	}, func(reply []byte) error {
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

// fuzzRoute sends each fuzz input as the body of a POST to route and checks
// the reply contract every route shares: no input reaches the middleware's
// panic status (500), every non-2xx reply carries a JSON ErrorResponse, and
// ok accepts the body of every 200. The server's small MaxSystemN and
// DefaultTimeout keep each input cheap.
func fuzzRoute(f *testing.F, route string, seeds []string, ok func(reply []byte) error) {
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
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusInternalServerError:
			t.Fatalf("500 for body %q: %s", body, rec.Body)
		case http.StatusOK:
			if err := ok(rec.Body.Bytes()); err != nil {
				t.Fatalf("200 for body %q: %v (%q)", body, err, rec.Body)
			}
		default:
			var er serve.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d without a JSON error for body %q: %q", rec.Code, body, rec.Body)
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
