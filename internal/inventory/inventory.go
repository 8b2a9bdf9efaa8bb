// Package inventory simulates a full EPCglobal C1G2 tag inventory — the
// "traditional identification protocol" the paper contrasts estimation
// against (§III-A: exact counting is "easy and fast ... when the
// cardinality is small"; BFCE exists because it is neither at scale).
//
// The simulation follows the Gen2 framed-slotted-ALOHA anticollision
// dialogue with dynamic frame sizing (DFSA):
//
//   - the reader opens a frame of 2^Q slots with a Query command; every
//     unidentified tag draws a slot counter uniformly in [0, 2^Q);
//   - the reader steps through slots with QueryRep commands; tags at
//     counter zero backscatter a 16-bit RN16;
//   - a singleton slot is ACKed and the tag replies with its PC+EPC+CRC,
//     completing one identification;
//   - at the frame boundary the reader estimates the remaining backlog
//     from the collision count (Schoute's estimator: backlog ≈ 2.39 ×
//     collisions), picks the Q whose frame best matches it, and issues
//     QueryAdjust. Inventory ends when a frame closes with no collisions
//     (every responding tag was a singleton, so nothing remains).
//
// Command and reply lengths follow the C1G2 framing (Query 22 bits,
// QueryRep 4, QueryAdjust 9, ACK 18; RN16 16 tag-bits, PC+EPC+CRC16 128
// tag-bits for a 96-bit EPC; the package tests pin each to the sum of its
// §6.3.2.12 field widths) and are priced with the same air-interface
// profile the estimators use, so "inventory seconds" and "estimation
// seconds" are directly comparable — the InventoryCrossover experiment is
// built on exactly that comparison.
package inventory

import (
	"errors"
	"math"

	"rfidest/internal/timing"
	"rfidest/internal/xrand"
)

// C1G2 command and reply lengths in bits.
const (
	QueryBits       = 22  // Query: opens an inventory round
	QueryRepBits    = 4   // QueryRep: advance to the next slot
	QueryAdjustBits = 9   // QueryAdjust: restart the frame with a new Q
	AckBits         = 18  // ACK: acknowledge a singleton RN16
	RN16Bits        = 16  // tag's slot reply
	EPCReplyBits    = 128 // PC (16) + EPC (96) + CRC-16: the identification
)

// Gen2-typical dialogue settings.
const (
	initialQ      = 4          // the Q the first Query announces (Gen2 default)
	backlogFactor = 2.39       // Schoute's collisions-to-backlog factor
	maxCommands   = 50_000_000 // bounds the dialogue against a runaway Q walk
)

// Result summarizes one full inventory.
type Result struct {
	Identified int         // tags read (== n unless the command cap hit)
	Slots      int         // ALOHA slots walked
	Collisions int         // collision slots observed
	Empties    int         // empty slots observed
	Rounds     int         // Query/QueryAdjust frames opened
	Complete   bool        // every tag was identified
	Cost       timing.Cost // full dialogue cost
	Seconds    float64     // priced under C1G2
}

// Run inventories a population of n tags and returns the dialogue
// statistics. The simulation is deterministic given seed.
func Run(n int, seed uint64) (Result, error) {
	return run(n, seed, maxCommands)
}

// run is Run with the command cap as a parameter, so a test can reach it.
func run(n int, seed uint64, commandCap int) (Result, error) {
	if n < 0 {
		return Result{}, errors.New("inventory: negative population")
	}
	rng := xrand.NewStream(seed, 0x1417)
	var clock timing.Clock
	var res Result

	remaining := n
	q := initialQ
	commands := 0
	first := true
	for remaining > 0 && commands < commandCap {
		frame := frameOccupancy(rng, remaining, 1<<uint(q))
		if first {
			clock.Broadcast(QueryBits)
			first = false
		} else {
			clock.Broadcast(QueryAdjustBits)
		}
		commands++
		res.Rounds++

		collisions := 0
		for _, occ := range frame {
			res.Slots++
			switch {
			case occ == 0:
				res.Empties++
			case occ == 1:
				// RN16 → ACK → EPC reply.
				clock.Listen(RN16Bits)
				clock.Broadcast(AckBits)
				clock.Listen(EPCReplyBits)
				commands += 2
				remaining--
				res.Identified++
			default:
				collisions++
				clock.Listen(RN16Bits) // the collided RN16s still burn air time
				commands++
			}
			// Advance to the next slot.
			clock.Broadcast(QueryRepBits)
			commands++
			if commands >= commandCap {
				break
			}
		}
		res.Collisions += collisions
		// Schoute backlog → next Q. A collision-free frame means every
		// participant was identified; the remaining>0 loop condition
		// cannot hold then, but guard q anyway.
		q = qForBacklog(backlogFactor * float64(collisions))
	}

	res.Complete = remaining == 0
	res.Cost = clock.Cost()
	res.Seconds = clock.Seconds(timing.C1G2)
	return res, nil
}

// qForBacklog returns the Q whose frame size 2^Q best matches the backlog
// estimate, clamped to [0, 15].
func qForBacklog(backlog float64) int {
	if backlog < 1 {
		return 0
	}
	q := int(math.Round(math.Log2(backlog)))
	if q < 0 {
		return 0
	}
	if q > 15 {
		return 15
	}
	return q
}

// frameOccupancy samples the multinomial occupancy of `tags` tags over
// `slots` slots via sequential binomial splitting (exact, O(slots)).
func frameOccupancy(rng *xrand.Rand, tags, slots int) []int {
	occ := make([]int, slots)
	remaining := tags
	for i := 0; i < slots-1 && remaining > 0; i++ {
		c := rng.Binomial(remaining, 1/float64(slots-i))
		occ[i] = c
		remaining -= c
	}
	occ[slots-1] += remaining
	return occ
}
