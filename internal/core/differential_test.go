package core

import (
	"math"
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/tags"
)

// twoRounds builds two overlapping populations from one master set:
// round A holds tags [0, aEnd), round B holds [bStart, n). The overlap is
// [bStart, aEnd).
func twoRounds(t *testing.T, n, aEnd, bStart int, seed uint64) (a, b *channel.Reader) {
	t.Helper()
	master := tags.Generate(n, tags.T1, seed)
	popA := &tags.Population{Tags: master.Tags[:aEnd], Dist: master.Dist, Seed: seed}
	popB := &tags.Population{Tags: master.Tags[bStart:], Dist: master.Dist, Seed: seed}
	return channel.NewReader(channel.NewTagEngine(popA, channel.IdealRN), seed+1),
		channel.NewReader(channel.NewTagEngine(popB, channel.IdealRN), seed+2)
}

func newDiffer(t *testing.T, pn int) *Differ {
	t.Helper()
	d, err := NewDiffer(Config{}, pn, 12345)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDifferValidation(t *testing.T) {
	if _, err := NewDiffer(Config{W: -1}, 5, 1); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := NewDiffer(Config{}, 0, 1); err == nil {
		t.Fatal("pn=0 accepted")
	}
	if _, err := NewDiffer(Config{}, 1024, 1); err == nil {
		t.Fatal("pn=denominator accepted")
	}
	d := newDiffer(t, 5)
	if _, err := d.Take(nil); err == nil {
		t.Fatal("nil session accepted")
	}
}

func TestSnapshotCardinality(t *testing.T) {
	rA, _ := twoRounds(t, 100000, 100000, 0, 7)
	d := newDiffer(t, 8) // λ = 3·(8/1024)·1e5/8192 ≈ 0.29
	s, err := d.Take(rA)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cardinality(); math.Abs(got-100000)/100000 > 0.05 {
		t.Fatalf("snapshot cardinality %v", got)
	}
	if s.Cost.TagSlots != 8192 {
		t.Fatalf("snapshot cost %+v", s.Cost)
	}
}

func TestUnionExactOverlap(t *testing.T) {
	// A = [0, 80k), B = [50k, 130k): |A∪B| = 130k, |A∩B| = 30k.
	rA, rB := twoRounds(t, 130000, 80000, 50000, 11)
	d := newDiffer(t, 8)
	sA, err := d.Take(rA)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := d.Take(rB)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Union(sA, sB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-130000)/130000 > 0.05 {
		t.Fatalf("union estimate %v, want ~130000", u)
	}
	inter, err := Intersection(sA, sB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inter-30000) > 12000 { // inclusion–exclusion stacks variance
		t.Fatalf("intersection estimate %v, want ~30000", inter)
	}
}

func TestArrivalsAndDepartures(t *testing.T) {
	// Between rounds: 20k tags left ([0, 20k)), 35k arrived ([85k, 120k)).
	rA, rB := twoRounds(t, 120000, 85000, 20000, 13)
	d := newDiffer(t, 8)
	sA, err := d.Take(rA)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := d.Take(rB)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Departures(sA, sB)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := Arrivals(sA, sB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dep-20000) > 8000 {
		t.Fatalf("departures %v, want ~20000", dep)
	}
	if math.Abs(arr-35000) > 8000 {
		t.Fatalf("arrivals %v, want ~35000", arr)
	}
}

func TestIdenticalSnapshotsNoChange(t *testing.T) {
	// The same population twice: arrivals and departures must be ~0 (the
	// snapshots are bit-identical, so exactly 0).
	master := tags.Generate(50000, tags.T1, 17)
	d := newDiffer(t, 16)
	r1 := channel.NewReader(channel.NewTagEngine(master, channel.IdealRN), 18)
	r2 := channel.NewReader(channel.NewTagEngine(master, channel.IdealRN), 19)
	s1, err := d.Take(r1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d.Take(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Idle.Equal(s2.Idle) {
		t.Fatal("pinned snapshots of the same population differ")
	}
	arr, err := Arrivals(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Departures(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if arr != 0 || dep != 0 {
		t.Fatalf("no-change rounds report arr=%v dep=%v", arr, dep)
	}
}

func TestSnapshotCompatibilityChecks(t *testing.T) {
	master := tags.Generate(1000, tags.T1, 21)
	r1 := channel.NewReader(channel.NewTagEngine(master, channel.IdealRN), 22)
	r2 := channel.NewReader(channel.NewTagEngine(master, channel.IdealRN), 23)
	d1 := newDiffer(t, 8)
	d2, err := NewDiffer(Config{}, 8, 99999) // different pinned seed
	if err != nil {
		t.Fatal(err)
	}
	s1, err := d1.Take(r1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d2.Take(r2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Union(s1, s2); err == nil {
		t.Fatal("differing seeds accepted")
	}
	if _, err := Union(s1, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	s3 := *s1
	s3.Pn = 9
	if _, err := Union(s1, &s3); err == nil {
		t.Fatal("differing persistence accepted")
	}
	s4 := *s1
	s4.W = 4096
	if _, err := Union(s1, &s4); err == nil {
		t.Fatal("differing geometry accepted")
	}
}
