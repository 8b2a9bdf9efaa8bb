// Package channel simulates the time-slotted, Reader-Talks-First physical
// channel between one (logical) RFID reader and a tag population (§III-A).
//
// The unit of communication is the bit-slot: tags that selected a slot
// transmit a short signal there, and the reader only distinguishes busy
// (at least one transmission) from idle. A frame is a consecutive run of
// bit-slots configured by parameters the reader broadcasts beforehand
// (frame size w, hash count k, persistence probability p, random seeds).
//
// Two engines execute frames:
//
//   - TagEngine walks every tag and executes the tag-side algorithm
//     literally (Algorithm 2 of the paper), including the paper's
//     XOR/bitget hash and RN-based persistence when configured. O(n·k) per
//     frame.
//   - BallsEngine samples the exact occupancy law of the same process
//     (Binomial-thinned balls scattered multinomially), without iterating
//     tags. O(n·k·p + w) per frame. It is statistically exact for ideal
//     hashing, which makes large comparison sweeps (ZOE's thousands of
//     single-slot frames) tractable.
//
// A Reader ties an engine to a timing.Clock so protocols are charged for
// every broadcast bit and every sensed slot, which is how the paper's
// "overall execution time" metric is produced.
package channel

import (
	"fmt"

	"rfidest/internal/bitset"
)

// SlotDist selects how a tag's hash maps to a slot index.
type SlotDist int

const (
	// Uniform hashing: each hash selects a slot uniformly in [0, w).
	// Used by BFCE, ZOE, SRC, UPE, EZB, FNEB, MLE, ART.
	Uniform SlotDist = iota
	// Geometric hashing: slot j is selected with probability 2^{-(j+1)}
	// (capped at the last slot). Used by lottery-frame protocols (LOF, PET).
	Geometric
)

// FrameRequest describes one frame the reader initiates.
type FrameRequest struct {
	W       int      // announced frame size (hash range), > 0
	K       int      // hashes (slot selections) per tag, > 0
	P       float64  // persistence probability in [0, 1]
	Observe int      // slots the reader senses; 0 means W, else must be <= W
	Dist    SlotDist // slot-selection distribution
	Seed    uint64   // frame seed; fresh per frame
}

func (req FrameRequest) validate() (observe int) {
	if req.W <= 0 {
		panic("channel: frame with non-positive w")
	}
	if req.K <= 0 {
		panic("channel: frame with non-positive k")
	}
	if req.P < 0 || req.P > 1 {
		panic(fmt.Sprintf("channel: persistence %v out of [0,1]", req.P))
	}
	observe = req.Observe
	if observe == 0 {
		observe = req.W
	}
	if observe < 0 || observe > req.W {
		panic("channel: observe out of range")
	}
	return observe
}

// BitVec is the reader-side view of a frame: Get(i) reports whether slot i
// was busy. (The paper's B stores the complement — B(i)=1 for idle — but
// busy/idle is the physical observation; estimators convert as needed.)
//
// The representation is word-packed (internal/bitset, bit i set ⟺ slot i
// busy): 64 slots per uint64 word, so the aggregate queries every estimator
// hangs off a frame — CountBusy, RhoIdle, FirstBusy, Runs — run one
// popcount or TrailingZeros64 per word instead of one branch per slot. The
// pre-packing []bool semantics are retained bit-for-bit; reference_test.go
// keeps the original implementation for cross-checking tests and
// benchmarks.
//
// The zero BitVec is an empty (zero-slot) frame. Construct real frames
// with NewBitVec or FromBools.
type BitVec struct {
	bits *bitset.Set // bit i set ⟺ slot i busy; nil for the zero value
}

// NewBitVec returns an all-idle frame of n slots.
func NewBitVec(n int) BitVec { return BitVec{bits: bitset.New(n)} }

// FromBools packs a busy/idle bool slice into a BitVec.
func FromBools(busy []bool) BitVec { //lint:allow boolframe conversion bridge from the reference []bool representation
	return BitVec{bits: bitset.FromBools(busy)}
}

// Bools unpacks the frame into the reference busy/idle bool slice.
func (b BitVec) Bools() []bool { //lint:allow boolframe conversion bridge to the reference []bool representation
	if b.bits == nil {
		return nil
	}
	return b.bits.Bools()
}

// Len returns the number of observed slots.
func (b BitVec) Len() int {
	if b.bits == nil {
		return 0
	}
	return b.bits.Len()
}

// Get reports whether slot i was busy.
func (b BitVec) Get(i int) bool { return b.bits.Get(i) }

// setBusy marks slot i busy (engine-side scatter).
func (b BitVec) setBusy(i int) { b.bits.Set1(i) }

// truncate shortens the frame in place to its first n slots (the observed
// prefix of a larger announced frame).
func (b BitVec) truncate(n int) BitVec {
	b.bits.Truncate(n)
	return b
}

// or merges another reader's observation of the same frame into b — the
// multi-reader back-end OR, one word at a time.
func (b BitVec) or(o BitVec) BitVec {
	b.bits.Or(o.bits)
	return b
}

// Words returns the number of 64-bit words backing the frame.
func (b BitVec) Words() int {
	if b.bits == nil {
		return 0
	}
	return b.bits.Words()
}

// Word returns backing word i of the busy bits (slots 64i .. 64i+63).
// Channel-error models (NoisyEngine, the internal/faults injectors) read
// words to batch per-slot decisions into one XOR per word.
func (b BitVec) Word(i int) uint64 { return b.bits.Word(i) }

// XorWord flips the busy/idle state of the slots selected by mask within
// backing word i. Mask bits at positions past Len are ignored.
func (b BitVec) XorWord(i int, mask uint64) { b.bits.XorWord(i, mask) }

// ClearFrom marks every slot at index >= from idle, keeping the frame
// length. A truncated or desynchronized observation loses its tail: the
// reader sensed those slots but recovered no signal, so they read idle.
func (b BitVec) ClearFrom(from int) {
	if b.bits == nil {
		return
	}
	if from < 0 {
		from = 0
	}
	if from >= b.bits.Len() {
		return
	}
	for wi := from >> 6; wi < b.bits.Words(); wi++ {
		w := b.bits.Word(wi)
		if wi == from>>6 {
			w &^= 1<<uint(from&63) - 1 // slots below `from` survive
		}
		if w != 0 {
			b.bits.XorWord(wi, w)
		}
	}
}

// Equal reports whether two frames have identical length and slots.
func (b BitVec) Equal(o BitVec) bool {
	if b.bits == nil || o.bits == nil {
		return b.Len() == o.Len()
	}
	return b.bits.Equal(o.bits)
}

// CountBusy returns the number of busy slots (one popcount per word).
func (b BitVec) CountBusy() int {
	if b.bits == nil {
		return 0
	}
	return b.bits.Count()
}

// CountIdle returns the number of idle slots.
func (b BitVec) CountIdle() int { return b.Len() - b.CountBusy() }

// RhoIdle returns the fraction of idle slots — the paper's ρ̄, the mean of
// the Bloom vector B whose bits are 1 for idle slots.
func (b BitVec) RhoIdle() float64 {
	if b.Len() == 0 {
		return 0
	}
	return float64(b.CountIdle()) / float64(b.Len())
}

// FirstBusy returns the index of the first busy slot, or -1 if none.
func (b BitVec) FirstBusy() int {
	if b.bits == nil {
		return -1
	}
	return b.bits.FirstSet()
}

// FirstIdle returns the index of the first idle slot — the number of
// leading busy slots, which is the lottery-frame observation (LOF, PET). A
// fully busy frame reports its length.
func (b BitVec) FirstIdle() int {
	if b.bits == nil {
		return 0
	}
	if first := b.bits.FirstClear(); first >= 0 {
		return first
	}
	return b.Len()
}

// Runs returns the lengths of maximal runs of busy slots (used by ART).
func (b BitVec) Runs() []int {
	if b.bits == nil {
		return nil
	}
	return b.bits.Runs()
}

// IdleSet returns the paper's Bloom vector B — bit i set ⟺ slot i idle —
// as a fresh packed set (the complement of the busy bits). Snapshot
// archives (core.Differ) store exactly this.
func (b BitVec) IdleSet() *bitset.Set {
	if b.bits == nil {
		return bitset.New(0)
	}
	return b.bits.Clone().Not()
}

// Engine executes frames against a (real or synthetic) tag population.
type Engine interface {
	// RunFrame executes one frame and returns the busy/idle observation of
	// the first Observe slots.
	RunFrame(req FrameRequest) BitVec
	// FirstResponse returns the index of the first busy slot of the frame,
	// scanning at most maxScan slots, or -1 if the scanned prefix is idle.
	// Protocols that terminate a frame at the first reply (FNEB) use this
	// instead of materializing enormous frames.
	FirstResponse(req FrameRequest, maxScan int) int
	// Size returns the ground-truth population size. It exists for harness
	// bookkeeping and MUST NOT be consulted by estimator logic.
	Size() int
}
