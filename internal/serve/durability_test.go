package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rfidest"
	"rfidest/internal/checkpoint"
	"rfidest/internal/serve"
)

// monSpec is the deployment every durability test monitors: synthetic so
// rounds are fast, seeded so every session is a pure function of its salt.
var monSpec = serve.SystemSpec{N: 20000, Seed: 5, Synthetic: true}

// postMonitor runs one round of the named monitor and decodes the reply.
func postMonitor(t *testing.T, url string, req serve.MonitorRequest) (int, serve.MonitorResponse, []byte) {
	t.Helper()
	status, body := postJSON(t, url+"/v1/monitor", req)
	var resp serve.MonitorResponse
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
	}
	return status, resp, body
}

// TestMonitorEndpoint exercises the monitor lifecycle on a stateless
// server: rounds chain warm state, configuration drift is a conflict, and
// delete forgets the loop.
func TestMonitorEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	req := serve.MonitorRequest{
		Name: "dock-a", System: monSpec, Epsilon: 0.1, Delta: 0.1,
	}
	salt := uint64(0xfeed)
	req.Salt = &salt

	status, r1, body := postMonitor(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("round 1: status %d: %s", status, body)
	}
	if r1.Rounds != 1 || r1.Salt != salt {
		t.Fatalf("round 1 = rounds %d salt %#x, want 1, %#x", r1.Rounds, r1.Salt, salt)
	}
	status, r2, body := postMonitor(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("round 2: status %d: %s", status, body)
	}
	if r2.Rounds != 2 {
		t.Fatalf("round 2 did not chain: rounds = %d", r2.Rounds)
	}
	if r2.Warm == (rfidest.MonitorState{}) {
		t.Error("round 2 echoed empty warm state")
	}

	// Same name, different accuracy: refused, warm state untouched.
	drift := req
	drift.Epsilon = 0.2
	if status, _, _ := postMonitor(t, ts.URL, drift); status != http.StatusConflict {
		t.Fatalf("config drift: status %d, want 409", status)
	}

	del := func() int {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/monitor?name=dock-a", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := del(); status != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", status)
	}
	if status := del(); status != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", status)
	}

	// Recreated after delete: the loop starts cold.
	status, r4, body := postMonitor(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("post-delete round: status %d: %s", status, body)
	}
	if r4.Rounds != 1 {
		t.Errorf("post-delete round = %d, want a cold 1", r4.Rounds)
	}
}

// newDurableServer builds a server over a checkpoint store in dir. The
// store is NOT closed by cleanup — crash tests abandon it deliberately.
func newDurableServer(t *testing.T, dir string, seed uint64) (*serve.Server, *httptest.Server, *checkpoint.Store) {
	t.Helper()
	st, err := checkpoint.Open(dir, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, serve.Config{Seed: seed, Checkpoint: st})
	return s, ts, st
}

// TestCrashRecoveryEquality is the durability contract end to end: kill a
// server that acknowledged estimates and monitor rounds, restart over the
// same state directory, and require (1) every acknowledged pinned-salt
// reply replays bit-identically, (2) the recovered monitor continues its
// round chain exactly where a never-crashed server would be, and (3) no
// acknowledged server-assigned salt is ever issued again.
func TestCrashRecoveryEquality(t *testing.T) {
	dir := t.TempDir()
	monSalts := []uint64{0xa1, 0xa2, 0xa3}
	monReq := func(i int) serve.MonitorRequest {
		return serve.MonitorRequest{
			Name: "gate-7", System: monSpec, Epsilon: 0.1, Delta: 0.1,
			Salt: &monSalts[i],
		}
	}

	// Server A: acknowledge work, then crash (the store is never closed,
	// the httptest listener just goes away).
	_, tsA, _ := newDurableServer(t, dir, 99)
	type acked struct {
		salt uint64
		est  rfidest.Estimate
	}
	var ests []acked
	saltsA := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		status, body := postJSON(t, tsA.URL+"/v1/estimate", serve.EstimateRequest{
			System: monSpec, Epsilon: 0.1, Delta: 0.1,
		})
		if status != http.StatusOK {
			t.Fatalf("estimate %d: status %d: %s", i, status, body)
		}
		var resp serve.EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		ests = append(ests, acked{resp.Salt, resp.Estimate})
		saltsA[resp.Salt] = true
	}
	var lastA serve.MonitorResponse
	for i := 0; i < 2; i++ {
		status, resp, body := postMonitor(t, tsA.URL, monReq(i))
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", i+1, status, body)
		}
		lastA = resp
	}
	if lastA.Rounds != 2 {
		t.Fatalf("server A rounds = %d, want 2", lastA.Rounds)
	}
	tsA.Close() // crash: no drain, no store close

	// Server B recovers from the same directory.
	_, tsB, stB := newDurableServer(t, dir, 99)
	if got := stB.State().Monitors; len(got) != 1 {
		t.Fatalf("recovered %d monitor records, want 1", len(got))
	}

	// (1) Acknowledged estimates replay bit-identically.
	for _, a := range ests {
		salt := a.salt
		status, body := postJSON(t, tsB.URL+"/v1/estimate", serve.EstimateRequest{
			System: monSpec, Epsilon: 0.1, Delta: 0.1, Salt: &salt,
		})
		if status != http.StatusOK {
			t.Fatalf("replay salt %#x: status %d: %s", salt, status, body)
		}
		var resp serve.EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != a.est {
			t.Errorf("replay salt %#x drifted:\n got  %+v\n want %+v", salt, resp.Estimate, a.est)
		}
	}

	// (2) The monitor continues its chain: round 3 next, not a cold 1.
	status, r3, body := postMonitor(t, tsB.URL, monReq(2))
	if status != http.StatusOK {
		t.Fatalf("post-recovery round: status %d: %s", status, body)
	}
	if r3.Rounds != 3 {
		t.Fatalf("post-recovery rounds = %d, want 3 (chain continued)", r3.Rounds)
	}

	// ...and lands exactly where a never-crashed server would: a control
	// server runs the same three rounds straight through.
	_, tsC := newTestServer(t, serve.Config{Seed: 99})
	var ctl serve.MonitorResponse
	for i := 0; i < 3; i++ {
		status, resp, body := postMonitor(t, tsC.URL, monReq(i))
		if status != http.StatusOK {
			t.Fatalf("control round %d: status %d: %s", i+1, status, body)
		}
		ctl = resp
	}
	if r3.Estimate != ctl.Estimate || r3.Warm != ctl.Warm {
		t.Errorf("recovered chain diverged from uncrashed control:\n got  %+v warm %+v\n want %+v warm %+v",
			r3.Estimate, r3.Warm, ctl.Estimate, ctl.Warm)
	}

	// (3) Restart never re-issues an acknowledged salt.
	fstatus, fbody := postJSON(t, tsB.URL+"/v1/estimate", serve.EstimateRequest{
		System: monSpec, Epsilon: 0.1, Delta: 0.1,
	})
	if fstatus != http.StatusOK {
		t.Fatalf("fresh estimate on B: status %d: %s", fstatus, fbody)
	}
	var fresh serve.EstimateResponse
	if err := json.Unmarshal(fbody, &fresh); err != nil {
		t.Fatal(err)
	}
	if saltsA[fresh.Salt] {
		t.Errorf("server B re-issued salt %#x acknowledged by the crashed server", fresh.Salt)
	}
}

// TestBreakerOverHTTP trips a breaker with real 5xx outcomes (deadline
// expiries) and checks the shed path end to end: 503 with a Retry-After
// header, /readyz unready, metrics counting trips, and validation errors
// never feeding the breaker.
func TestBreakerOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{
		Now: time.Now,
		Breaker: serve.BreakerConfig{
			Window: 4, MinSamples: 4, TripRatio: 0.5,
			CoolDown: time.Hour, // tripped stays tripped for the test
		},
	})
	// 400s are the client's fault; they must not move the breaker.
	for i := 0; i < 8; i++ {
		status, _ := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
			System: monSpec, Epsilon: 5, Delta: 0.1,
		})
		if status != http.StatusBadRequest {
			t.Fatalf("bad accuracy: status %d, want 400", status)
		}
	}
	// A 1ms deadline expires while the handler materializes a large
	// uncached population (distinct seed per request defeats the system
	// cache), so the session is dead before its first round boundary: 504.
	until503 := 0
	for ; until503 < 16; until503++ {
		status, body := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
			System:  serve.SystemSpec{N: 400000, Seed: uint64(1000 + until503)},
			Epsilon: 0.1, Delta: 0.1, TimeoutMs: 1,
		})
		if status == http.StatusServiceUnavailable {
			break
		}
		if status != http.StatusGatewayTimeout {
			t.Fatalf("timeout request %d: status %d: %s", until503, status, body)
		}
	}
	if until503 < 4 || until503 >= 16 {
		t.Fatalf("breaker opened after %d timeouts, want at MinSamples=4", until503)
	}

	// Shed replies carry the cool-down hint and readiness goes red.
	b, err := json.Marshal(serve.EstimateRequest{System: monSpec, Epsilon: 0.1, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	shed, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	shed.Body.Close()
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-trip estimate: status %d, want 503", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("shed reply missing Retry-After header")
	}
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz with open breaker: status %d, want 503", rr.StatusCode)
	}

	snap := s.Requests().Snapshot()
	if len(snap.Breakers) != 1 || snap.Breakers[0].Trips != 1 || snap.Breakers[0].Shed == 0 {
		t.Errorf("breaker metrics = %+v, want one tripped BFCE cell with sheds", snap.Breakers)
	}
}

// TestBatchClientErrorsSpareBreaker: a batch job that fails on its own
// request — an accuracy target past the slot limit — is a 4xx-class error,
// so it must not feed its estimator's breaker, just as on /v1/estimate. A
// batch naming an unknown estimator is refused with 400 before any breaker
// sees the name.
func TestBatchClientErrorsSpareBreaker(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Now: time.Now})
	spec := serve.SystemSpec{N: 1000, Seed: 5, Synthetic: true}
	readyz := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 10; i++ {
		status, body := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{Jobs: []serve.BatchJob{
			{System: spec, Estimator: "ZOE", Epsilon: 0.05, Delta: 1e-300},
		}})
		var resp serve.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil || status != http.StatusOK {
			t.Fatalf("slot-limit batch %d: status %d: %s", i, status, body)
		}
		if failure := resp.Report.Jobs[0].Failure; !strings.Contains(failure, rfidest.ErrSlotLimit.Error()) {
			t.Fatalf("slot-limit batch %d: job failure %q", i, failure)
		}
	}
	if status, body := postJSON(t, ts.URL+"/v1/estimate", serve.EstimateRequest{
		System: spec, Estimator: "ZOE", Epsilon: 0.1, Delta: 0.1,
	}); status != http.StatusOK {
		t.Fatalf("valid ZOE estimate after slot-limit batches: status %d: %s", status, body)
	}
	if status := readyz(); status != http.StatusOK {
		t.Fatalf("readyz after slot-limit batches: status %d, want 200", status)
	}

	for i := 0; i < 10; i++ {
		status, body := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{Jobs: []serve.BatchJob{
			{System: spec, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1},
			{System: spec, Estimator: "BFEC", Epsilon: 0.1, Delta: 0.1},
		}})
		if status != http.StatusBadRequest || !strings.Contains(string(body), "job 1: ") {
			t.Fatalf("unknown-estimator batch %d: status %d: %s", i, status, body)
		}
	}
	if status := readyz(); status != http.StatusOK {
		t.Fatalf("readyz after unknown-estimator batches: status %d, want 200", status)
	}
}

// TestDurableMonitorRoundAllocs pins the allocations of one warm durable
// monitor round: a pinned-salt POST /v1/monitor over HTTP whose warm state
// is appended to a checkpoint store and fsynced before the reply. The 22
// rounds stay under the store's compaction threshold, so no snapshot is
// written while they are counted. A round allocates 126 objects; -race
// builds read 136–141 over 17 runs (see raceDetector).
func TestDurableMonitorRoundAllocs(t *testing.T) {
	ceiling := 126.0
	if raceDetector {
		ceiling = 145
	}
	_, ts, st := newDurableServer(t, t.TempDir(), 1)
	t.Cleanup(func() { st.Close() })
	salt := uint64(0x5eed)
	body, err := json.Marshal(serve.MonitorRequest{
		Name: "dock-allocs", System: monSpec, Epsilon: 0.1, Delta: 0.1, FastRounds: 3, Salt: &salt,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	round := func() {
		resp, err := client.Post(ts.URL+"/v1/monitor", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	round() // the monitor's first, cold round creates it
	if got := testing.AllocsPerRun(20, round); got > ceiling {
		t.Errorf("%v allocations per durable monitor round, ceiling %v", got, ceiling)
	}
}
