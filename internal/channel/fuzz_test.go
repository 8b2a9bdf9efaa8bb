package channel

import (
	"math"
	"testing"

	"rfidest/internal/tags"
)

// FuzzTagFrameMatchesReference: for any hash mode, slot distribution,
// frame width, hash count, persistence, observed prefix, scan limit and
// seed, TagEngine's frames, slot states, first responses, transmissions
// and the slots a prepared TagHash reports agree with the per-tag
// reference decision (tagDecision).
func FuzzTagFrameMatchesReference(f *testing.F) {
	f.Add(uint8(0), false, uint16(8191), uint8(2), 8.0/1024, uint16(32), uint16(0), uint64(1))
	f.Add(uint8(1), true, uint16(31), uint8(0), 1.0, uint16(0), uint16(5), uint64(2))
	f.Add(uint8(2), false, uint16(12), uint8(8), 0.3/1024, uint16(100), uint16(900), uint64(3))
	f.Add(uint8(2), true, uint16(44), uint8(11), 0.5, uint16(20), uint16(3), uint64(4))
	f.Add(uint8(0), false, uint16(0), uint8(3), 0.0, uint16(0), uint16(0), uint64(5))
	f.Add(uint8(1), false, uint16(999), uint8(1), math.NaN(), uint16(7), uint16(0), uint64(6))
	pop := tags.Generate(300, tags.T1, 7)
	f.Fuzz(func(t *testing.T, modeRaw uint8, geometric bool, wRaw uint16, kRaw uint8, p float64, observeRaw, scanRaw uint16, seed uint64) {
		mode := HashMode(modeRaw % 3)
		req := FrameRequest{W: 1 + int(wRaw%4096), K: 1 + int(kRaw%12), P: p, Seed: seed}
		if geometric {
			req.Dist = Geometric
		} else if mode == PaperXOR {
			req.W = 2 << (wRaw % 12) // paper-hash tags address power-of-two frames only
		}
		if p < 0 || p > 1 { // out-of-range persistence is refused by validate; NaN stays
			req.P = math.Mod(math.Abs(p), 1)
		}
		req.Observe = int(observeRaw) % (req.W + 1)
		maxScan := int(scanRaw) % (req.W + 2)
		packed, ref := NewTagEngine(pop, mode), NewTagEngine(pop, mode)
		assertTagFrameMatchesRef(t, 0, packed, ref, req, maxScan)
		for j, h := 0, PrepareTagHash(mode, req); j < req.K; j++ {
			if j == h.j0+h.n {
				h = prepareTagHash(mode, req, j) // the next group of hashes
			}
			tag := pop.Tags[(int(seed>>8)+j)%pop.N()]
			got := h.Slot(&tag, j)
			if want := refSlotFor(tag, mode, req.Dist, req.Seed, j, req.W); got != want {
				t.Fatalf("%v %+v: TagHash slot of hash %d = %d, ref %d", mode, req, j, got, want)
			}
		}
	})
}
