package channel

import (
	"math"
	"sort"
	"testing"
)

// TestSaturationBound checks, with exact binomial probabilities, the bound
// every saturated slot answers to: at each threshold scatter uses, the
// chance that some slot it writes saturated would have held fewer than
// two responses, summed over those slots, is at most 2^-64. That sum
// bounds how far a saturated frame's law moves in total variation.
// Uniform frames of many widths are checked at the fewest responses
// scatter saturates them with, and lottery frames at the fewest
// responses that give each head depth: a slot holds fewer than two the
// less often the more responses it expects, so those are the worst cases.
func TestSaturationBound(t *testing.T) {
	bound := math.Ldexp(1, -64)
	widths := []int{2, 3, 5, 32, 100, 1000, 1024, 3000, 8192, 65536, 1 << 20, 1<<30 + 7}
	for _, w := range widths {
		balls := sort.Search(1<<50, func(b int) bool { return saturates(b, w) })
		if balls == 1<<50 {
			t.Fatalf("w=%d: no response count saturates", w)
		}
		if tail := float64(w) * fewerThanTwo(balls, 1/float64(w)); tail > bound {
			t.Errorf("w=%d saturates at %d responses (%.1f per slot): P(a slot holds fewer than two) summed over the frame = %.3g > 2^-64",
				w, balls, float64(balls)/float64(w), tail)
		}
	}
	const w = 64 // wide enough for every head depth
	for depth := 1; depth < 40; depth++ {
		balls := sort.Search(1<<62, func(b int) bool { return lotteryHead(b, w) >= depth })
		head := lotteryHead(balls, w)
		tail := 0.0
		for j := 0; j < head; j++ {
			tail += fewerThanTwo(balls, math.Ldexp(1, -(j+1)))
		}
		if tail > bound {
			t.Errorf("%d responses give a lottery head of %d slots: P(a head slot holds fewer than two) summed over the head = %.3g > 2^-64",
				balls, head, tail)
		}
	}
}

// fewerThanTwo returns P(X ≤ 1) for X ~ Bin(n, q), computed in logs:
// (1-q)^n + n·q·(1-q)^(n-1).
func fewerThanTwo(n int, q float64) float64 {
	l := math.Log1p(-q)
	return math.Exp(float64(n)*l) + math.Exp(math.Log(float64(n))+math.Log(q)+float64(n-1)*l)
}
