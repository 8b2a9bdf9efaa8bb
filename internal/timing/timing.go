// Package timing models the air-interface time of an RFID estimation
// protocol under the EPCglobal C1G2 standard, using the constants from
// BFCE §IV-E.1 / §V-A:
//
//   - reader → tag: 26.5 kb/s, i.e. 37.76 µs per bit,
//   - tag → reader: 53 kb/s, i.e. 18.88 µs per bit (one bit-slot),
//   - any two consecutive transmissions (in either direction) are separated
//     by a waiting interval of 302 µs.
//
// Protocols account their communication as three counters — reader bits,
// tag bit-slots, and inter-transmission intervals — and this package turns
// the counters into wall-clock air time. Keeping the raw counters (rather
// than a single accumulated duration) lets experiments re-price a protocol
// under a different radio profile without re-running the simulation.
package timing

import (
	"fmt"
	"time"
)

// Profile holds the per-unit costs of the air interface, in microseconds.
type Profile struct {
	ReaderBitUS float64 // time for the reader to transmit 1 bit
	TagBitUS    float64 // time for tags to transmit 1 bit (one bit-slot)
	IntervalUS  float64 // gap between consecutive transmissions
}

// C1G2 is the EPCglobal Class-1 Generation-2 profile used throughout the
// paper's evaluation.
var C1G2 = Profile{ReaderBitUS: 37.76, TagBitUS: 18.88, IntervalUS: 302}

// Cost counts the communication units a protocol consumed.
type Cost struct {
	ReaderBits int // bits broadcast by the reader (parameters, seeds)
	TagSlots   int // tag→reader bit-slots sensed by the reader
	Intervals  int // inter-transmission gaps
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.ReaderBits += other.ReaderBits
	c.TagSlots += other.TagSlots
	c.Intervals += other.Intervals
}

// Sub returns c minus other, component-wise. Estimators use it to report
// the cost of their own run when composed after another protocol on the
// same session (ZOE's rough phase runs LOF first).
func (c Cost) Sub(other Cost) Cost {
	return Cost{
		ReaderBits: c.ReaderBits - other.ReaderBits,
		TagSlots:   c.TagSlots - other.TagSlots,
		Intervals:  c.Intervals - other.Intervals,
	}
}

// Microseconds prices the cost under profile p.
func (c Cost) Microseconds(p Profile) float64 {
	return float64(c.ReaderBits)*p.ReaderBitUS +
		float64(c.TagSlots)*p.TagBitUS +
		float64(c.Intervals)*p.IntervalUS
}

// Seconds prices the cost under profile p, in seconds.
func (c Cost) Seconds(p Profile) float64 { return c.Microseconds(p) / 1e6 }

// Duration prices the cost under profile p as a time.Duration.
func (c Cost) Duration(p Profile) time.Duration {
	return time.Duration(c.Microseconds(p) * float64(time.Microsecond))
}

// String renders the counters and the C1G2 price.
func (c Cost) String() string {
	return fmt.Sprintf("readerBits=%d tagSlots=%d intervals=%d (%.4fs under C1G2)",
		c.ReaderBits, c.TagSlots, c.Intervals, c.Seconds(C1G2))
}

// Clock accumulates Cost across the frames of a protocol run. The zero
// value is ready to use.
type Clock struct {
	cost Cost
}

// Broadcast accounts a reader transmission of the given number of bits,
// preceded by one inter-transmission interval.
func (cl *Clock) Broadcast(bits int) {
	if bits < 0 {
		panic("timing: negative broadcast size")
	}
	cl.cost.ReaderBits += bits
	cl.cost.Intervals++
}

// Listen accounts the reader sensing the given number of tag bit-slots,
// preceded by one inter-transmission interval (the turnaround from the
// reader's command to the tags' response).
func (cl *Clock) Listen(slots int) {
	if slots < 0 {
		panic("timing: negative slot count")
	}
	cl.cost.TagSlots += slots
	cl.cost.Intervals++
}

// Charge adds a pre-computed cost to the clock. Fault models use it to
// account recovery time (retransmission stalls, resynchronization gaps)
// that is not a plain broadcast or listen.
func (cl *Clock) Charge(c Cost) {
	if c.ReaderBits < 0 || c.TagSlots < 0 || c.Intervals < 0 {
		panic("timing: negative charge")
	}
	cl.cost.Add(c)
}

// Cost returns the accumulated counters.
func (cl *Clock) Cost() Cost { return cl.cost }

// Seconds returns the accumulated air time under profile p.
func (cl *Clock) Seconds(p Profile) float64 { return cl.cost.Seconds(p) }

// SeedBits is the length of one random seed broadcast by the reader (§V-A
// assumes 32-bit seeds; broadcasting one takes 32·37.76 + 302 ≈ 1510 µs).
const SeedBits = 32

// PnBits is the length of the persistence-probability numerator broadcast
// (§IV-E.1 restricts l_p to 32 bits).
const PnBits = 32

// BFCEBudgetSeconds is the paper's closed-form bound on BFCE's overall
// execution time (§IV-E.1): t = (6·l_R + 2·l_p)·t_r→t + 3·t_int + 9216·t_t→r
// with 32-bit seeds, i.e. "less than 0.19 s".
func BFCEBudgetSeconds(p Profile) float64 {
	us := float64(6*SeedBits+2*PnBits)*p.ReaderBitUS + 3*p.IntervalUS + 9216*p.TagBitUS
	return us / 1e6
}
