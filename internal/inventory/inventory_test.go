package inventory

import (
	"math"
	"testing"

	"rfidest/internal/xrand"
)

func TestRunIdentifiesEveryone(t *testing.T) {
	for _, n := range []int{0, 1, 10, 100, 1000, 10000} {
		res, err := Run(n, uint64(n)+1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete || res.Identified != n {
			t.Fatalf("n=%d: identified %d, complete=%v", n, res.Identified, res.Complete)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("inventory not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(-1, 1); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestRunCommandCap(t *testing.T) {
	res, err := run(100000, 7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("capped run cannot complete 100k tags")
	}
	if res.Identified >= 100000 {
		t.Fatalf("identified %d under a 1000-command cap", res.Identified)
	}
}

// TestCommandLengthsMatchInventoryConstants sums each command's field
// widths as C1G2 §6.3.2.12 lays them out and pins the sums to the lengths
// the inventory prices.
func TestCommandLengthsMatchInventoryConstants(t *testing.T) {
	for _, c := range []struct {
		name   string
		fields []int
		priced int
	}{
		// Command 1000, DR, M, TRext, Sel, Session, Target, Q, CRC-5.
		{"Query", []int{4, 1, 2, 1, 2, 2, 1, 4, 5}, QueryBits},
		// Command 00, Session.
		{"QueryRep", []int{2, 2}, QueryRepBits},
		// Command 1001, Session, UpDn.
		{"QueryAdjust", []int{4, 2, 3}, QueryAdjustBits},
		// Command 01, RN16.
		{"ACK", []int{2, 16}, AckBits},
		// The tag's RN16 backscatter.
		{"RN16", []int{16}, RN16Bits},
		// PC, 96-bit EPC, CRC-16.
		{"EPC reply", []int{16, 96, 16}, EPCReplyBits},
	} {
		sum := 0
		for _, w := range c.fields {
			sum += w
		}
		if sum != c.priced {
			t.Errorf("%s: fields sum to %d bits, inventory prices %d", c.name, sum, c.priced)
		}
	}
}

func TestSlotEfficiencyNearTheory(t *testing.T) {
	// A well-adapted framed ALOHA identifies ~1/e ≈ 0.368 of slots as
	// singletons; the Gen2 Q-walk is a bit below the ideal. Demand the
	// slot count stay within sane bounds: n/0.368 <= slots <= 5n.
	const n = 20000
	res, err := Run(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots < int(float64(n)/0.40) {
		t.Fatalf("only %d slots for %d tags — better than ALOHA allows", res.Slots, n)
	}
	if res.Slots > 5*n {
		t.Fatalf("%d slots for %d tags — Q adaptation broken", res.Slots, n)
	}
}

func TestSecondsScaleLinearly(t *testing.T) {
	// Inventory time is Θ(n): doubling n should roughly double seconds.
	a, err := Run(5000, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(10000, 13)
	if err != nil {
		t.Fatal(err)
	}
	ratio := b.Seconds / a.Seconds
	if ratio < 1.6 || ratio > 2.6 {
		t.Fatalf("time ratio for 2x tags = %v, want ~2", ratio)
	}
}

func TestInventoryDwarfsEstimationAtScale(t *testing.T) {
	// The motivation number: a full inventory of 100k tags takes minutes
	// of air time, vs BFCE's 0.19 s.
	res, err := Run(100000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds < 30 {
		t.Fatalf("inventory of 100k tags took only %v s — per-tag cost too low", res.Seconds)
	}
	// ~6-8 ms per tag under the paper's 302 µs turnaround: 10-14 minutes.
	if res.Seconds > 900 {
		t.Fatalf("inventory of 100k tags took %v s — per-tag cost absurd", res.Seconds)
	}
}

func TestPerTagCostSane(t *testing.T) {
	// Each identification costs at least RN16 + ACK + EPC ≈ 2.9 ms plus
	// its share of empty/collision slots.
	const n = 2000
	res, err := Run(n, 19)
	if err != nil {
		t.Fatal(err)
	}
	perTag := res.Seconds / float64(n)
	floor := (16*18.88 + 18*37.76 + 128*18.88) / 1e6 // bare payload, no gaps
	if perTag < floor {
		t.Fatalf("per-tag cost %v s below physical floor %v s", perTag, floor)
	}
}

func TestQForBacklog(t *testing.T) {
	cases := map[float64]int{0: 0, 0.5: 0, 1: 0, 2: 1, 100: 7, 1 << 20: 15}
	for in, want := range cases {
		if got := qForBacklog(in); got != want {
			t.Fatalf("qForBacklog(%v) = %d, want %d", in, got, want)
		}
	}
}

func TestFrameOccupancyConserves(t *testing.T) {
	rng := newTestRNG()
	occ := frameOccupancy(rng, 12345, 256)
	total := 0
	for _, c := range occ {
		total += c
	}
	if total != 12345 {
		t.Fatalf("occupancy lost tags: %d", total)
	}
	occ = frameOccupancy(rng, 100, 1)
	if occ[0] != 100 {
		t.Fatalf("single-slot frame occupancy %d", occ[0])
	}
}

func TestFrameOccupancyUniform(t *testing.T) {
	rng := newTestRNG()
	const tags, slots, rounds = 1000, 16, 400
	sums := make([]float64, slots)
	for r := 0; r < rounds; r++ {
		for i, c := range frameOccupancy(rng, tags, slots) {
			sums[i] += float64(c)
		}
	}
	want := float64(tags) / slots * rounds
	for i, s := range sums {
		if math.Abs(s-want)/want > 0.05 {
			t.Fatalf("slot %d mean occupancy %v, want ~%v", i, s/rounds, want/rounds)
		}
	}
}

func newTestRNG() *xrand.Rand { return xrand.New(99) }
