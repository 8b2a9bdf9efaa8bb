package rfidest

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentSharedSystem drives many goroutines of estimation calls
// against single shared Systems — the multi-reader deployment workload
// (paper §III-A) in which independent sessions are in flight at once. It
// exercises every System variant (tag-level, paper-hash, synthetic, noisy,
// merged) and asserts every call succeeds with a sane estimate. Under
// `go test -race` this test also proves the session-counter contract: on
// code that bumps the counter without synchronization it fails with a race
// report. The paper-hash system is fresh, so its first sessions race to
// build the population's shared RN planes.
func TestConcurrentSharedSystem(t *testing.T) {
	const n = 20000
	base := NewSystem(n, WithSeed(101))
	other := NewSystem(n, WithSeed(103), WithDistribution(Normal))
	merged, err := Merge(2*n, base, other)
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string]*System{
		"tag-level":  base,
		"paper-hash": NewSystem(n, WithSeed(109), WithPaperTagHash()),
		"synthetic":  NewSystem(n, WithSeed(105), WithSynthetic()),
		"noisy":      NewSystem(n, WithSeed(107), WithNoise(0.001, 0.001)),
		"merged":     merged,
	}

	const goroutines = 32
	const callsPer = 3
	for name, sys := range systems {
		sys := sys
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, goroutines*callsPer)
			ests := make(chan float64, goroutines*callsPer)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for c := 0; c < callsPer; c++ {
						var est Estimate
						var err error
						if (g+c)%2 == 0 {
							est, err = sys.Run(context.Background(), WithAccuracy(0.1, 0.1))
						} else {
							est, err = sys.Run(context.Background(), WithEstimator("BFCE"), WithAccuracy(0.1, 0.1))
						}
						if err != nil {
							errs <- err
							continue
						}
						ests <- est.N
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			close(ests)
			for err := range errs {
				t.Fatal(err)
			}
			truth := float64(sys.N())
			count, bad := 0, 0
			for n := range ests {
				count++
				if math.Abs(n-truth)/truth > 0.5 {
					bad++
				}
			}
			if count != goroutines*callsPer {
				t.Fatalf("got %d estimates, want %d", count, goroutines*callsPer)
			}
			// (ε, δ) = (0.1, 0.1) at a 50% tolerance: any violation at all
			// indicates a correctness problem, not statistical noise.
			if bad > 0 {
				t.Fatalf("%d/%d concurrent estimates off by >50%%", bad, count)
			}
		})
	}
}

// TestConcurrentSaltedSessions checks that salt-addressed estimation is
// both safe under concurrency and bit-identical to the same salts applied
// sequentially — the property the fleet runner's determinism rests on —
// over the synthetic channel and over paper-hash tags.
func TestConcurrentSaltedSessions(t *testing.T) {
	systems := map[string]*System{
		"synthetic":  NewSystem(30000, WithSeed(211), WithSynthetic()),
		"paper-hash": NewSystem(30000, WithSeed(213), WithPaperTagHash()),
	}
	const calls = 64
	for name, sys := range systems {
		t.Run(name, func(t *testing.T) {
			seq := make([]float64, calls)
			for i := range seq {
				est, err := sys.Run(context.Background(), WithEstimator("BFCE"), WithAccuracy(0.1, 0.1), WithSeedSalt(uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				seq[i] = est.N
			}

			conc := make([]float64, calls)
			var wg sync.WaitGroup
			sem := make(chan struct{}, runtime.GOMAXPROCS(0))
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					est, err := sys.Run(context.Background(), WithEstimator("BFCE"), WithAccuracy(0.1, 0.1), WithSeedSalt(uint64(i)))
					if err != nil {
						t.Error(err)
						return
					}
					conc[i] = est.N
				}(i)
			}
			wg.Wait()
			for i := range seq {
				if seq[i] != conc[i] {
					t.Fatalf("salt %d: sequential %v != concurrent %v", i, seq[i], conc[i])
				}
			}
		})
	}
}
