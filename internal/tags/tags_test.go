package tags

import (
	"math"
	"testing"

	"rfidest/internal/stats"
)

func TestGenerateSizesAndUniqueness(t *testing.T) {
	for _, dist := range Distributions {
		pop := Generate(5000, dist, 42)
		if pop.N() != 5000 {
			t.Fatalf("%v: N = %d", dist, pop.N())
		}
		seen := make(map[uint64]struct{}, pop.N())
		for _, tag := range pop.Tags {
			if tag.ID < 1 || tag.ID > IDSpace {
				t.Fatalf("%v: ID %d out of space", dist, tag.ID)
			}
			if _, dup := seen[tag.ID]; dup {
				t.Fatalf("%v: duplicate ID %d", dist, tag.ID)
			}
			seen[tag.ID] = struct{}{}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, T2, 7)
	b := Generate(100, T2, 7)
	for i := range a.Tags {
		if a.Tags[i] != b.Tags[i] {
			t.Fatalf("population not deterministic at %d", i)
		}
	}
	c := Generate(100, T2, 8)
	if a.Tags[0] == c.Tags[0] {
		t.Fatal("different seeds produced identical first tag")
	}
}

func TestGenerateZeroAndPanics(t *testing.T) {
	if Generate(0, T1, 1).N() != 0 {
		t.Fatal("empty population not empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative n did not panic")
		}
	}()
	Generate(-1, T1, 1)
}

func TestT1UniformShape(t *testing.T) {
	pop := Generate(50000, T1, 11)
	ids := pop.IDs()
	s := stats.Summarize(ids)
	mid := float64(IDSpace) / 2
	if math.Abs(s.Mean-mid)/mid > 0.02 {
		t.Fatalf("T1 mean %v too far from midpoint", s.Mean)
	}
	// Uniform: std = IDSpace/sqrt(12).
	wantStd := float64(IDSpace) / math.Sqrt(12)
	if math.Abs(s.Std-wantStd)/wantStd > 0.03 {
		t.Fatalf("T1 std %v, want ~%v", s.Std, wantStd)
	}
}

func TestT2BellShape(t *testing.T) {
	pop := Generate(50000, T2, 12)
	h := stats.NewHistogram(pop.IDs(), 0, float64(IDSpace), 10)
	centre := h.Fraction(4) + h.Fraction(5)
	edges := h.Fraction(0) + h.Fraction(9)
	if centre < 3*edges {
		t.Fatalf("T2 not bell shaped: centre %v edges %v", centre, edges)
	}
	// Irwin-Hall(3)/3 std = sqrt(3/12)/3 = 0.0962... of the space.
	s := stats.Summarize(pop.IDs())
	wantStd := float64(IDSpace) * math.Sqrt(3.0/12.0) / 3
	if math.Abs(s.Std-wantStd)/wantStd > 0.05 {
		t.Fatalf("T2 std %v, want ~%v", s.Std, wantStd)
	}
}

func TestT3NormalShape(t *testing.T) {
	pop := Generate(50000, T3, 13)
	s := stats.Summarize(pop.IDs())
	mid := float64(IDSpace) / 2
	if math.Abs(s.Mean-mid)/mid > 0.02 {
		t.Fatalf("T3 mean %v too far from midpoint", s.Mean)
	}
	wantStd := float64(IDSpace) / 8
	if math.Abs(s.Std-wantStd)/wantStd > 0.05 {
		t.Fatalf("T3 std %v, want ~%v", s.Std, wantStd)
	}
}

func TestRNUniform(t *testing.T) {
	pop := Generate(100000, T1, 14)
	// RN must be uniform over 32 bits: check per-bit balance.
	for b := 0; b < 32; b++ {
		ones := 0
		for _, tag := range pop.Tags {
			if tag.RN>>uint(b)&1 == 1 {
				ones++
			}
		}
		frac := float64(ones) / float64(pop.N())
		if math.Abs(frac-0.5) > 0.01 {
			t.Fatalf("RN bit %d biased: %v", b, frac)
		}
	}
}

func TestDistributionString(t *testing.T) {
	if T1.String() != "T1-uniform" || T2.String() != "T2-approx-normal" || T3.String() != "T3-normal" {
		t.Fatal("distribution names drifted")
	}
	if Distribution(99).String() == "" {
		t.Fatal("unknown distribution must still render")
	}
}
