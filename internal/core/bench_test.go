package core

import (
	"fmt"
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/tags"
)

// BenchmarkOptimalPn measures the minimal-p search of §IV-D at BFCE's
// defaults, (0.05, 0.05), across rough lower bounds: one below the
// accuracy floor (no feasible numerator), three whose p_o is 394, 119
// and 3 out of 1024, and one past the scalability ceiling, where λ
// overshoots the feasible window already at p = 1/1024 and the scan
// stops at its first numerator.
func BenchmarkOptimalPn(b *testing.B) {
	for _, leg := range []struct {
		nLow float64
		pn   int // the p_o numerator; 0 when none is feasible
	}{{500, 0}, {1500, 394}, {5000, 119}, {250000, 3}, {5e8, 0}} {
		b.Run(fmt.Sprintf("nLow=%g", leg.nLow), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if pn, ok := OptimalPn(leg.nLow, 3, 8192, 1024, 0.05, 0.05); pn != leg.pn || ok != (leg.pn > 0) {
					b.Fatalf("p_o = %d/1024 (feasible %v), want %d/1024", pn, ok, leg.pn)
				}
			}
		})
	}
}

// BenchmarkGammaBounds measures the Fig. 4 grid scan (1023² points).
func BenchmarkGammaBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = GammaBounds(3, 1024)
	}
}

// BenchmarkEstimateTagLevel measures one full BFCE estimation over 100k
// materialized tags.
func BenchmarkEstimateTagLevel(b *testing.B) {
	pop := tags.Generate(100000, tags.T1, 1)
	est := MustNew(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := channel.NewReader(channel.NewTagEngine(pop, channel.IdealRN), uint64(i))
		if _, err := est.Estimate(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotUnion measures differential set algebra on two pinned
// 8192-bit snapshots.
func BenchmarkSnapshotUnion(b *testing.B) {
	pop := tags.Generate(100000, tags.T1, 2)
	d, err := NewDiffer(Config{}, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	s1, err := d.Take(channel.NewReader(channel.NewTagEngine(pop, channel.IdealRN), 4))
	if err != nil {
		b.Fatal(err)
	}
	s2, err := d.Take(channel.NewReader(channel.NewTagEngine(pop, channel.IdealRN), 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Union(s1, s2); err != nil {
			b.Fatal(err)
		}
	}
}
