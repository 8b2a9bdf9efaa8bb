package rfidest

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestMonitorRunOptionRejection: the monitor's protocol, accuracy and
// retry policy are fixed; the session-shaping options still work.
func TestMonitorRunOptionRejection(t *testing.T) {
	m, err := NewMonitor(0.05, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(50000, WithSeed(701))
	ctx := context.Background()
	if _, err := m.Run(ctx, sys, WithEstimator("ZOE")); err == nil ||
		!strings.Contains(err.Error(), "BFCE only") {
		t.Errorf("WithEstimator: err = %v", err)
	}
	if _, err := m.Run(ctx, sys, WithAccuracy(0.1, 0.1)); err == nil ||
		!strings.Contains(err.Error(), "fixed at NewMonitor") {
		t.Errorf("WithAccuracy: err = %v", err)
	}
	if _, err := m.Run(ctx, sys, WithRetry(1, 0)); err == nil ||
		!strings.Contains(err.Error(), "not a monitor option") {
		t.Errorf("WithRetry: err = %v", err)
	}
	if _, err := m.Run(ctx, nil); err == nil ||
		!strings.Contains(err.Error(), "nil system") {
		t.Errorf("nil system: err = %v", err)
	}
	if m.Rounds() != 0 {
		t.Errorf("rejected rounds advanced the monitor: Rounds() = %d", m.Rounds())
	}
	// A rejected option must not consume a session either: the next
	// un-salted round still opens session 0, matching a fresh monitor on a
	// fresh same-seed system.
	fresh, err := NewMonitor(0.05, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(ctx, NewSystem(50000, WithSeed(701)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("session counter advanced on rejected options: %+v != %+v", got, want)
	}
}

// TestMonitorRunCancellation: a cancelled context stops the round and
// leaves the warm-start state untouched.
func TestMonitorRunCancellation(t *testing.T) {
	m, err := NewMonitor(0.05, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(80000, WithSeed(702))
	if _, err := m.Run(context.Background(), sys); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Run(ctx, NewSystem(80000, WithSeed(703))); err == nil {
		t.Fatal("cancelled round succeeded")
	}
	if m.Snapshot() != before {
		t.Errorf("cancelled round moved warm state: %+v -> %+v", before, m.Snapshot())
	}
}

// TestMonitorRunObserved: an observed monitoring round books exactly one
// session and stays bit-identical to the bare round.
func TestMonitorRunObserved(t *testing.T) {
	bare, err := NewMonitor(0.05, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	obsd, err := NewMonitor(0.05, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reg := NewMetrics()
	want, err := bare.Run(ctx, NewSystem(60000, WithSeed(704)), WithSalt(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := obsd.Run(ctx, NewSystem(60000, WithSeed(704)), WithSalt(5), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("observer perturbed the round: %+v != %+v", got, want)
	}
	s := reg.Snapshot()
	if s.Sessions != 1 || s.Errors != 0 {
		t.Errorf("sessions/errors = %d/%d, want 1/0", s.Sessions, s.Errors)
	}
	if s.EstimateRelErr.Count != 1 {
		t.Errorf("EstimateRelErr.Count = %d, want 1", s.EstimateRelErr.Count)
	}
}

// TestMonitorSnapshotRestore: warm-start state moved into a fresh Monitor
// resumes the loop bit-identically — the checkpoint/resume contract.
func TestMonitorSnapshotRestore(t *testing.T) {
	m, err := NewMonitor(0.05, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		if _, err := m.Run(ctx, NewSystem(90000, WithSeed(uint64(710+round)))); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if snap.Rounds != 3 || snap.N == 0 {
		t.Fatalf("snapshot after 3 warm rounds: %+v", snap)
	}

	resumed, err := NewMonitor(0.05, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds() != 3 {
		t.Fatalf("restored Rounds() = %d, want 3", resumed.Rounds())
	}
	want, err := m.Run(ctx, NewSystem(90000, WithSeed(720)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(ctx, NewSystem(90000, WithSeed(720)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resumed monitor diverged on the next round: %+v != %+v", got, want)
	}

	if err := resumed.Restore(MonitorState{Pn: -2}); err == nil {
		t.Error("invalid state accepted")
	}
	if err := resumed.Restore(MonitorState{N: -1}); err == nil {
		t.Error("negative estimate accepted")
	}
	// An infinite warm estimate would leave the next fast round no
	// feasible persistence probability.
	if err := resumed.Restore(MonitorState{Pn: snap.Pn, N: math.Inf(1), Rounds: 1}); err == nil {
		t.Error("infinite estimate accepted")
	}
}

// FuzzMonitorRestore: Restore is the decoder of durable monitor state
// (checkpoint records, the serving layer's monitor table), so it must
// reject every state the monitor cannot run from — NaN, ±Inf and negative
// N, Pn outside [0, 1024), negative Rounds — accept the rest exactly, and
// leave the next round a finite estimate or an error.
func FuzzMonitorRestore(f *testing.F) {
	f.Add(8, 50000.0, 3) // a warm state
	f.Add(8, math.Inf(1), 3)
	f.Add(8, math.NaN(), 3)
	f.Add(1024, 50000.0, 3)
	f.Add(8, 50000.0, -1)
	sys := NewSystem(2000, WithSeed(5), WithSynthetic())
	f.Fuzz(func(t *testing.T, pn int, n float64, rounds int) {
		m, err := NewMonitor(0.05, 0.05, 2)
		if err != nil {
			t.Fatal(err)
		}
		st := MonitorState{Pn: pn, N: n, Rounds: rounds}
		err = m.Restore(st)
		valid := pn >= 0 && pn < 1024 && n >= 0 && !math.IsInf(n, 1) && rounds >= 0
		if valid != (err == nil) {
			t.Fatalf("Restore(%+v): err = %v, want accepted = %v", st, err, valid)
		}
		if err != nil {
			if m.Snapshot() != (MonitorState{}) {
				t.Fatalf("rejected Restore(%+v) moved the state to %+v", st, m.Snapshot())
			}
			return
		}
		if got := m.Snapshot(); got != st {
			t.Fatalf("Snapshot after Restore(%+v) = %+v", st, got)
		}
		est, err := m.Run(context.Background(), sys, WithSeedSalt(1))
		if err == nil && (math.IsNaN(est.N) || math.IsInf(est.N, 0)) {
			t.Fatalf("round after Restore(%+v) estimated %v", st, est.N)
		}
	})
}
