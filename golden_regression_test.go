package rfidest_test

// The golden grid itself lives in internal/goldengrid so every replay
// harness (this file, the scheduler tests, the fleet equivalence tests)
// pins against one table. This file keeps the original contract: a
// salt-addressed Run (WithEstimator, WithAccuracy, WithSeedSalt) must
// reproduce every field of every Estimate exactly.

import (
	"context"
	"testing"

	"rfidest"
	"rfidest/internal/goldengrid"
)

// goldenSystems lazily instantiates the grid's deployments, one per key.
func goldenSystems(t *testing.T) func(key string) *rfidest.System {
	t.Helper()
	systems := make(map[string]*rfidest.System)
	return func(key string) *rfidest.System {
		sys, ok := systems[key]
		if !ok {
			var err error
			sys, err = goldengrid.NewSystem(key)
			if err != nil {
				t.Fatal(err)
			}
			systems[key] = sys
		}
		return sys
	}
}

func TestEstimateWithSaltGolden(t *testing.T) {
	system := goldenSystems(t)
	for _, c := range goldengrid.Cases() {
		got, err := system(c.System).Run(context.Background(), rfidest.WithEstimator(c.Estimator),
			rfidest.WithAccuracy(goldengrid.Epsilon, goldengrid.Delta), rfidest.WithSeedSalt(c.Salt))
		if err != nil {
			t.Errorf("%s/%s/0x%x: %v", c.System, c.Estimator, c.Salt, err)
			continue
		}
		if got != c.Want {
			t.Errorf("%s/%s/0x%x:\n got  %+v\n want %+v", c.System, c.Estimator, c.Salt, got, c.Want)
		}
	}
}
