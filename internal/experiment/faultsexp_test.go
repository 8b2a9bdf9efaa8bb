package experiment

import "testing"

// TestFaultsExperiment: the sweep runs both legs through the library's
// Run, so the n = 0 row saturates every attempt on both legs and spends
// exactly the configured retries, while the pristine row never retries —
// WithRetry re-runs saturated rounds only.
func TestFaultsExperiment(t *testing.T) {
	o := DefaultOptions()
	o.Trials = 2
	o.Retries = 3
	tab := Faults(o)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 5 severities + the n=0 row", len(tab.Rows))
	}
	empty := tab.Rows[5]
	if empty[0] != "empty(n=0)" {
		t.Fatalf("last row = %v, want the n=0 row", empty)
	}
	if sat, satRetry := cellFloat(t, empty[3]), cellFloat(t, empty[5]); sat != 100 || satRetry != 100 {
		t.Errorf("n=0 sat%% = %v plain, %v retried; want 100 on both legs", sat, satRetry)
	}
	if got := cellFloat(t, empty[6]); got != 3 {
		t.Errorf("n=0 retries/run = %v, want exactly the configured 3", got)
	}
	pristine := tab.Rows[0]
	if pristine[0] != "0" {
		t.Fatalf("first row = %v, want severity 0", pristine)
	}
	if got := cellFloat(t, pristine[6]); got != 0 {
		t.Errorf("severity-0 retries/run = %v, want 0: no unsaturated round is re-run", got)
	}
	if got := cellFloat(t, pristine[7]); got != 0 {
		t.Errorf("severity-0 extra air = %v s, want 0", got)
	}
}
