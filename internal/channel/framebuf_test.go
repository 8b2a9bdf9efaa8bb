package channel

import (
	"testing"

	"rfidest/internal/tags"
)

// TestWarmFramesAllocateNothing gates the frame engines' steady state: once
// an engine's buffer is sized by its first frame, frames, slot-state
// frames and first-response scans of that geometry allocate nothing.
func TestWarmFramesAllocateNothing(t *testing.T) {
	engines := map[string]OccupancyEngine{
		"balls": NewBallsEngine(100000, 3),
		"tag":   NewTagEngine(tags.Generate(2000, tags.T1, 5), IdealRN),
	}
	for name, e := range engines {
		req := FrameRequest{W: 8192, K: 3, P: 0.1}
		e.RunFrame(req)
		e.RunFrameOccupancy(req)
		for call, run := range map[string]func(){
			"RunFrame":          func() { e.RunFrame(req) },
			"RunFrame prefix":   func() { req.Observe = 1024; e.RunFrame(req); req.Observe = 0 },
			"RunFrameOccupancy": func() { e.RunFrameOccupancy(req) },
			"FirstResponse":     func() { e.FirstResponse(req, 0) },
		} {
			if got := testing.AllocsPerRun(20, func() { req.Seed++; run() }); got != 0 {
				t.Errorf("%s %s: %v allocations per warm call", name, call, got)
			}
		}
	}
}
