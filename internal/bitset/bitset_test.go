package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	s := New(130) // crosses word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set1(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		s.XorWord(i>>6, 1<<uint(i&63))
		if s.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestCountAndFraction(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i += 2 {
		s.Set1(i)
	}
	if s.Count() != 50 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Fraction() != 0.5 {
		t.Fatalf("Fraction = %v", s.Fraction())
	}
	if New(0).Fraction() != 0 {
		t.Fatal("empty Fraction != 0")
	}
}

func TestBoundsPanics(t *testing.T) {
	s := New(10)
	for _, f := range []func(){
		func() { s.Get(-1) },
		func() { s.Get(10) },
		func() { s.Set1(10) },
		func() { s.Set1(-1) },
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestAndOrCounts(t *testing.T) {
	a, b := New(128), New(128)
	for i := 0; i < 128; i += 2 {
		a.Set1(i)
	}
	for i := 0; i < 128; i += 3 {
		b.Set1(i)
	}
	// Multiples of 6 in [0,128): 22. Multiples of 2 or 3: 64+43-22=85.
	if got := a.AndCount(b); got != 22 {
		t.Fatalf("AndCount = %d", got)
	}
	if got := a.Clone().Or(b).Count(); got != 85 {
		t.Fatalf("in-place Or count = %d", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	New(10).Or(New(11))
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set1(3)
	b := a.Clone()
	b.Set1(5)
	if a.Get(5) {
		t.Fatal("Clone shares storage")
	}
	if !b.Get(3) {
		t.Fatal("Clone lost bits")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(70), New(70)
	if !a.Equal(b) {
		t.Fatal("fresh sets not equal")
	}
	a.Set1(69)
	if a.Equal(b) {
		t.Fatal("differing sets equal")
	}
	if a.Equal(New(71)) {
		t.Fatal("different lengths equal")
	}
}

func TestBoolsRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		s := FromBools(raw)
		out := s.Bools()
		if len(out) != len(raw) {
			return false
		}
		for i := range raw {
			if out[i] != raw[i] {
				return false
			}
		}
		count := 0
		for _, v := range raw {
			if v {
				count++
			}
		}
		return count == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refFirstSet/refFirstClear/refRunCount are the obvious per-bit references the
// word-at-a-time implementations are checked against.
func refFirstSet(raw []bool) int {
	for i, v := range raw {
		if v {
			return i
		}
	}
	return -1
}

func refFirstClear(raw []bool) int {
	for i, v := range raw {
		if !v {
			return i
		}
	}
	return -1
}

func refRunCount(raw []bool) int {
	runs := 0
	for i, v := range raw {
		if v && (i == 0 || !raw[i-1]) {
			runs++
		}
	}
	return runs
}

func TestFirstSetFirstClearRunsProperty(t *testing.T) {
	f := func(raw []bool) bool {
		s := FromBools(raw)
		return s.FirstSet() == refFirstSet(raw) &&
			s.FirstClear() == refFirstClear(raw) &&
			s.RunCount() == refRunCount(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFirstSetClearEdges(t *testing.T) {
	if New(0).FirstSet() != -1 || New(0).FirstClear() != -1 {
		t.Fatal("empty set must report -1 for both scans")
	}
	// All set, including a full last word and a partial one.
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		s := New(n)
		for i := 0; i < n; i++ {
			s.Set1(i)
		}
		if s.FirstClear() != -1 {
			t.Fatalf("n=%d: all-set FirstClear = %d", n, s.FirstClear())
		}
		if s.FirstSet() != 0 {
			t.Fatalf("n=%d: all-set FirstSet = %d", n, s.FirstSet())
		}
		if got := s.RunCount(); got != 1 {
			t.Fatalf("n=%d: all-set RunCount = %d", n, got)
		}
	}
	// A lone set bit at a word boundary.
	s := New(130)
	s.Set1(64)
	if s.FirstSet() != 64 {
		t.Fatalf("FirstSet = %d", s.FirstSet())
	}
	if s.RunCount() != 1 {
		t.Fatalf("RunCount = %d", s.RunCount())
	}
}

// TestRunsAcrossWordBoundary: a run that crosses a word boundary is one
// run, and a run ending on the last bit is counted.
func TestRunsAcrossWordBoundary(t *testing.T) {
	s := New(200)
	for i := 60; i < 70; i++ { // run spanning words 0 and 1
		s.Set1(i)
	}
	for i := 127; i < 129; i++ { // run spanning words 1 and 2
		s.Set1(i)
	}
	s.Set1(199) // trailing run at the very end
	if got := s.RunCount(); got != 3 {
		t.Fatalf("RunCount = %d, want 3", got)
	}
}

func TestNotMasksTail(t *testing.T) {
	s := New(70)
	s.Set1(3)
	s.Not()
	if s.Count() != 69 {
		t.Fatalf("Not Count = %d", s.Count())
	}
	if s.Get(3) || !s.Get(69) {
		t.Fatal("Not flipped bits wrong")
	}
	// Double complement is the identity.
	want := New(70)
	want.Set1(3)
	if !s.Not().Equal(want) {
		t.Fatal("double Not is not the identity")
	}
}

func TestXorAndXorWord(t *testing.T) {
	// XORing b into a word by word gives the symmetric difference.
	a, b := New(100), New(100)
	a.Set1(1)
	a.Set1(70)
	b.Set1(70)
	b.Set1(99)
	for i := 0; i < a.Words(); i++ {
		a.XorWord(i, b.Word(i))
	}
	want := New(100)
	want.Set1(1)
	want.Set1(99)
	if !a.Equal(want) {
		t.Fatal("word-wise Xor wrong")
	}
	// XorWord ignores mask bits beyond Len.
	s := New(70)
	s.XorWord(1, ^uint64(0))
	if s.Count() != 6 {
		t.Fatalf("XorWord leaked past Len: Count = %d", s.Count())
	}
	for i := 64; i < 70; i++ {
		if !s.Get(i) {
			t.Fatalf("bit %d not flipped", i)
		}
	}
}

func TestTruncate(t *testing.T) {
	s := New(130)
	for i := 0; i < 130; i++ {
		s.Set1(i)
	}
	s.Truncate(65)
	if s.Len() != 65 || s.Count() != 65 {
		t.Fatalf("Truncate: len=%d count=%d", s.Len(), s.Count())
	}
	s.Truncate(64)
	if s.Count() != 64 || s.Words() != 1 {
		t.Fatalf("Truncate to word edge: count=%d words=%d", s.Count(), s.Words())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("growing Truncate did not panic")
		}
	}()
	s.Truncate(65)
}

func TestDeMorganProperty(t *testing.T) {
	// |a OR b| + |a AND b| == |a| + |b| for any equal-length sets.
	f := func(x, y []bool) bool {
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		a, b := FromBools(x[:n]), FromBools(y[:n])
		return a.Clone().Or(b).Count()+a.AndCount(b) == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunCountProperty(t *testing.T) {
	f := func(raw []bool) bool {
		return FromBools(raw).RunCount() == refRunCount(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResetInPlace: Reset zeroes and resizes in place, so a Set reset to
// its largest length first serves every shorter length without
// allocating, and the zero Set is usable once Reset.
func TestResetInPlace(t *testing.T) {
	var s Set
	s.Reset(130)
	for i := 0; i < 130; i++ {
		s.Set1(i)
	}
	s.Reset(70)
	if s.Len() != 70 || s.Count() != 0 || s.Words() != 2 {
		t.Fatalf("after Reset(70): Len %d, Count %d, Words %d", s.Len(), s.Count(), s.Words())
	}
	if got := testing.AllocsPerRun(10, func() {
		s.Reset(130)
		s.Truncate(32)
		s.Reset(1)
	}); got != 0 {
		t.Fatalf("Reset within capacity allocated %v times", got)
	}
	s.Reset(1000) // past the capacity: grows
	if s.Len() != 1000 || s.Count() != 0 {
		t.Fatalf("after growing: Len %d, Count %d", s.Len(), s.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(-1) did not panic")
		}
	}()
	s.Reset(-1)
}
