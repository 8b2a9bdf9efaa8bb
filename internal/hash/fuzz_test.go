package hash

import "testing"

// FuzzUniformSlotRange: slots stay in range for arbitrary keys, seeds and
// widths, and the mapping is deterministic.
func FuzzUniformSlotRange(f *testing.F) {
	f.Add(uint64(0), uint64(0), 1)
	f.Add(uint64(1<<63), uint64(42), 8192)
	f.Add(^uint64(0), ^uint64(0), 3)
	f.Fuzz(func(t *testing.T, x, seed uint64, wRaw int) {
		w := wRaw % (1 << 20)
		if w <= 0 {
			w = 1
		}
		s := UniformSlot(x, seed, w)
		if s < 0 || s >= w {
			t.Fatalf("UniformSlot(%d, %d, %d) = %d", x, seed, w, s)
		}
		if s != UniformSlot(x, seed, w) {
			t.Fatal("UniformSlot not deterministic")
		}
	})
}

// FuzzPaperTagHashInvariants: the tag-side hash stays in [0, 8192) and
// depends only on RN ⊕ RS.
func FuzzPaperTagHashInvariants(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(0xffffffff), uint32(0x5555aaaa), uint32(0x12345678))
	f.Fuzz(func(t *testing.T, rn, rs, mask uint32) {
		h := PaperTagHashW(rn, rs, 8192)
		if h < 0 || h >= 8192 {
			t.Fatalf("hash out of range: %d", h)
		}
		if PaperTagHashW(rn^mask, rs^mask, 8192) != h {
			t.Fatal("hash depends on more than RN ⊕ RS")
		}
	})
}

// FuzzGeometricSlotCap: geometric slots never exceed the cap.
func FuzzGeometricSlotCap(f *testing.F) {
	f.Add(uint64(7), uint64(13), 32)
	f.Add(uint64(0), uint64(0), 1)
	f.Fuzz(func(t *testing.T, x, seed uint64, maxRaw int) {
		max := maxRaw % 64
		if max < 0 {
			max = -max % 64
		}
		if j := GeometricSlot(x, seed, max); j < 0 || j > max {
			t.Fatalf("GeometricSlot = %d with cap %d", j, max)
		}
	})
}
