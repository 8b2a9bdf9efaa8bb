package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rfidest/internal/serve"
)

// FuzzEstimateRequest sends arbitrary bytes as the body of POST
// /v1/estimate and checks the reply contract: no input reaches the
// middleware's panic status (500), every non-2xx reply carries a JSON
// ErrorResponse, and every 200 decodes into an EstimateResponse with a
// finite estimate. The server's small MaxSystemN and DefaultTimeout keep
// each input cheap.
func FuzzEstimateRequest(f *testing.F) {
	for _, body := range []string{
		`{"system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"salt":7}`,
		`{"system":{"n":1000,"seed":3,"synthetic":true},"epsilon":0.1,"delta":0.1,"solo":true}`,
		`{"system":{"n":2000,"synthetic":true},"estimator":"SRC","epsilon":1e-9,"delta":0.05}`,
		`{"system":{"n":2000,"synthetic":true},"estimator":"ZOE","epsilon":0.05,"delta":1e-300}`,
		`{"system":{"n":1000,"seed":3},"epsilon":0.1,"del`,
	} {
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
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusInternalServerError:
			t.Fatalf("500 for body %q: %s", body, rec.Body)
		case http.StatusOK:
			var resp serve.EstimateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable reply for body %q: %v (%q)", body, err, rec.Body)
			}
			if n := resp.Estimate.N; math.IsNaN(n) || math.IsInf(n, 0) {
				t.Fatalf("200 with a non-finite estimate %v for body %q", n, body)
			}
		default:
			var er serve.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d without a JSON error for body %q: %q", rec.Code, body, rec.Body)
			}
		}
	})
}
