package rfidest

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// TestEstimateWithSaltDeterministicAcrossGOMAXPROCS is the end-to-end
// form of the contract the rfidlint analyzers guard statically: a salted
// session is a pure function of (system seed, salt). It runs every salt's
// estimation twice concurrently under GOMAXPROCS=1 and again under
// GOMAXPROCS=8 and requires all four estimates per salt to be
// bit-identical — any wall-clock read, stray randomness source, or
// scheduling-dependent counter on the estimation path shows up here as a
// mismatch.
func TestEstimateWithSaltDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const (
		n         = 20000
		epsilon   = 0.1
		delta     = 0.1
		estimator = "BFCE"
	)
	salts := []uint64{0, 1, 7, 0xdecaf, ^uint64(0)}

	// One shared System per GOMAXPROCS setting, so the runs are fully
	// independent materializations of the same (n, seed) deployment.
	run := func(procs int) map[uint64][2]Estimate {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		sys := NewSystem(n, WithSeed(42))
		out := make(map[uint64][2]Estimate, len(salts))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, salt := range salts {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func(salt uint64, rep int) {
					defer wg.Done()
					est, err := sys.Run(context.Background(), WithEstimator(estimator), WithAccuracy(epsilon, delta), WithSeedSalt(salt))
					if err != nil {
						t.Errorf("salt %#x rep %d: %v", salt, rep, err)
						return
					}
					mu.Lock()
					pair := out[salt]
					pair[rep] = est
					out[salt] = pair
					mu.Unlock()
				}(salt, rep)
			}
		}
		wg.Wait()
		return out
	}

	seq := run(1)
	par := run(8)
	if t.Failed() {
		t.FailNow()
	}
	for _, salt := range salts {
		s, p := seq[salt], par[salt]
		// Estimate is a struct of scalars, so == is bit-exact equality
		// — which is the point: equal salts must replay the session
		// exactly, not merely to within tolerance.
		if s[0] != s[1] {
			t.Errorf("salt %#x: two runs under GOMAXPROCS=1 differ: %+v vs %+v", salt, s[0], s[1])
		}
		if p[0] != p[1] {
			t.Errorf("salt %#x: two runs under GOMAXPROCS=8 differ: %+v vs %+v", salt, p[0], p[1])
		}
		if s[0] != p[0] {
			t.Errorf("salt %#x: GOMAXPROCS=1 and GOMAXPROCS=8 differ: %+v vs %+v", salt, s[0], p[0])
		}
	}
}
