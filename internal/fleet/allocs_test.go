package fleet

import (
	"context"
	"testing"

	"rfidest"
)

// TestBatchAllocs pins the allocations of one small fleet.Run batch (four
// synthetic jobs, one per protocol family, two trials each) in each
// execution mode. TestSessionAllocs bounds the protocol sessions; these
// ceilings bound the batch layer around them: job runners, result folding
// and the worker pool or the interleaving scheduler. Race builds allocate
// the same.
func TestBatchAllocs(t *testing.T) {
	sys := rfidest.NewSystem(20000, rfidest.WithSeed(4), rfidest.WithSynthetic())
	var jobs []Job
	for _, est := range []string{"BFCE", "ZOE", "SRC", "LOF"} {
		jobs = append(jobs, Job{System: sys, Estimator: est, Epsilon: 0.1, Delta: 0.1, Trials: 2})
	}
	for _, c := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"pooled, one worker", Config{Workers: 1}, 113},
		{"pooled, two workers", Config{Workers: 2}, 117},
		{"interleaved", Config{Interleave: true}, 121},
	} {
		var err error
		got := testing.AllocsPerRun(5, func() {
			_, err = Run(context.Background(), c.cfg, jobs)
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > c.ceiling {
			t.Errorf("%s: %v allocations per batch, ceiling %v", c.name, got, c.ceiling)
		}
	}
}
