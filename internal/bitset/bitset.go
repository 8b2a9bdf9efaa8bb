// Package bitset provides a fixed-length packed bit vector. It backs the
// Bloom-filter structures of this repository: a reader that archives one
// BFCE snapshot per monitoring round stores w bits per round, and the
// set-algebra operations (AND/OR/count) on packed words are what make
// differential estimation over long archives practical.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-length bit vector. The zero value is an empty set;
// construct with New, or Reset a Set in place.
type Set struct {
	n     int
	words []uint64
}

// New returns a Set of n bits, all zero. It panics if n < 0.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Reset makes s an all-zero set of n bits in place. It reuses the backing
// words when they can hold n bits, so a Set reset to its largest length
// first never allocates again. It panics if n < 0.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic("bitset: negative length")
	}
	nw := (n + 63) / 64
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		s.words = s.words[:nw]
		clear(s.words)
	}
	s.n = n
}

// Len returns the number of bits.
func (s *Set) Len() int { return s.n }

func (s *Set) check(i int) {
	if uint(i) >= uint(s.n) {
		panic(rangeError{i, s.n})
	}
}

// rangeError is the panic value of an out-of-range index, formatted only
// when printed so the accessors stay cheap enough to inline.
type rangeError struct{ i, n int }

func (e rangeError) Error() string {
	return fmt.Sprintf("bitset: index %d out of [0, %d)", e.i, e.n)
}

// Set1 sets bit i.
func (s *Set) Set1(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << uint(i&63)
}

// Get reports bit i.
func (s *Set) Get(i int) bool {
	s.check(i)
	return s.words[i>>6]>>uint(i&63)&1 == 1
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Fraction returns Count/Len (0 for an empty set).
func (s *Set) Fraction() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.Count()) / float64(s.n)
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// sameLen panics unless the operands have equal length.
func (s *Set) sameLen(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: length mismatch %d vs %d", s.n, o.n))
	}
}

// Or sets s to s OR o, in place, and returns s.
func (s *Set) Or(o *Set) *Set {
	s.sameLen(o)
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
	return s
}

// AndCount returns the number of positions set in both s and o, without
// allocating.
func (s *Set) AndCount(o *Set) int {
	s.sameLen(o)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// Not flips every bit of s in place and returns s. Bits beyond Len stay
// zero, so counts over the complement remain exact.
func (s *Set) Not() *Set {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.maskTail()
	return s
}

// maskTail clears the unused high bits of the last word, restoring the
// invariant that bits at positions >= n are zero.
func (s *Set) maskTail() {
	if tail := uint(s.n & 63); tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << tail) - 1
	}
}

// Words returns the number of 64-bit words backing the Set.
func (s *Set) Words() int { return len(s.words) }

// Word returns backing word i (bits 64i .. 64i+63).
func (s *Set) Word(i int) uint64 { return s.words[i] }

// XorWord XORs mask into backing word i. Mask bits at positions >= Len are
// ignored, preserving the tail invariant.
func (s *Set) XorWord(i int, mask uint64) {
	s.words[i] ^= mask
	if i == len(s.words)-1 {
		s.maskTail()
	}
}

// Truncate shortens the Set in place to its first n bits. It panics if n
// exceeds the current length.
func (s *Set) Truncate(n int) *Set {
	if n < 0 || n > s.n {
		panic(fmt.Sprintf("bitset: truncate to %d out of [0, %d]", n, s.n))
	}
	s.n = n
	s.words = s.words[:(n+63)/64]
	s.maskTail()
	return s
}

// FirstSet returns the index of the lowest set bit, or -1 if none: the
// word-at-a-time equivalent of scanning for the first 1.
func (s *Set) FirstSet() int {
	for i, w := range s.words {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// FirstClear returns the index of the lowest clear bit, or -1 if every bit
// is set.
func (s *Set) FirstClear() int {
	for i, w := range s.words {
		if w != ^uint64(0) {
			pos := i<<6 + bits.TrailingZeros64(^w)
			if pos >= s.n {
				return -1 // clear bit lies in the masked tail
			}
			return pos
		}
	}
	return -1
}

// RunCount returns the number of maximal runs of consecutive set bits: a
// run starts at each set bit whose predecessor (carried across word
// boundaries) is clear.
func (s *Set) RunCount() int {
	count, carry := 0, uint64(0)
	for _, w := range s.words {
		count += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	return count
}

// Equal reports whether s and o have identical length and bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// FromBools builds a Set from a bool slice.
func FromBools(b []bool) *Set {
	s := New(len(b))
	for i, v := range b {
		if v {
			s.Set1(i)
		}
	}
	return s
}

// Bools renders the Set as a bool slice.
func (s *Set) Bools() []bool {
	out := make([]bool, s.n)
	for i := range out {
		out[i] = s.Get(i)
	}
	return out
}
