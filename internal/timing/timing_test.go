package timing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestC1G2Constants(t *testing.T) {
	// §V-A: 26.5 kb/s reader → 37.76 µs/bit; 53 kb/s tag → 18.88 µs/bit.
	if C1G2.ReaderBitUS != 37.76 || C1G2.TagBitUS != 18.88 || C1G2.IntervalUS != 302 {
		t.Fatalf("C1G2 profile drifted: %+v", C1G2)
	}
}

func TestSeedBroadcastCost(t *testing.T) {
	// §V-A: it takes 1510 µs for the reader to broadcast a 32-bit seed
	// (32·37.76 + 302).
	var cl Clock
	cl.Broadcast(SeedBits)
	us := cl.Cost().Microseconds(C1G2)
	if math.Abs(us-1510.32) > 1e-9 {
		t.Fatalf("32-bit seed broadcast = %v µs, want 1510.32", us)
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{ReaderBits: 1, TagSlots: 2, Intervals: 3}
	b := Cost{ReaderBits: 10, TagSlots: 20, Intervals: 30}
	a.Add(b)
	if a != (Cost{11, 22, 33}) {
		t.Fatalf("Add = %+v", a)
	}
}

func TestCostPricingLinear(t *testing.T) {
	f := func(rb, ts, iv uint8) bool {
		c := Cost{ReaderBits: int(rb), TagSlots: int(ts), Intervals: int(iv)}
		want := float64(rb)*37.76 + float64(ts)*18.88 + float64(iv)*302
		return math.Abs(c.Microseconds(C1G2)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockAccounting(t *testing.T) {
	var cl Clock
	cl.Broadcast(100)
	cl.Listen(8192)
	c := cl.Cost()
	if c.ReaderBits != 100 || c.TagSlots != 8192 || c.Intervals != 2 {
		t.Fatalf("clock cost = %+v", c)
	}
}

func TestClockPanics(t *testing.T) {
	var cl Clock
	for _, f := range []func(){func() { cl.Broadcast(-1) }, func() { cl.Listen(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("negative count did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSecondsAndDuration(t *testing.T) {
	c := Cost{TagSlots: 1000000} // 18.88 s
	if math.Abs(c.Seconds(C1G2)-18.88) > 1e-9 {
		t.Fatalf("Seconds = %v", c.Seconds(C1G2))
	}
	if d := c.Duration(C1G2); math.Abs(d.Seconds()-18.88) > 1e-6 {
		t.Fatalf("Duration = %v", d)
	}
}

func TestBFCEBudgetUnderPoint19(t *testing.T) {
	// §IV-E.1: "the overall temporal overhead of BFCE is less than 0.19s".
	got := BFCEBudgetSeconds(C1G2)
	if got >= 0.19 {
		t.Fatalf("BFCE budget %.6f s, paper promises < 0.19 s", got)
	}
	// And it should be in the right ballpark, not trivially small:
	// 256·37.76µs + 3·302µs + 9216·18.88µs = 184.58 ms.
	want := (256*37.76 + 3*302 + 9216*18.88) / 1e6
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("BFCE budget = %v, want %v", got, want)
	}
}

func TestCostString(t *testing.T) {
	if (Cost{}).String() == "" {
		t.Fatal("empty String()")
	}
}
