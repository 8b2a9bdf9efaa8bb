package channel

import (
	"testing"

	"rfidest/internal/tags"
)

// TestWarmFramesAllocateNothing gates the frame engines' steady state: once
// an engine's buffer is sized by its first frame, frames, slot-state
// frames and first-response scans of that geometry allocate nothing — for
// the synthetic engine and for tag engines in every hash mode, under both
// slot distributions, and past one TagHash group of hashes.
func TestWarmFramesAllocateNothing(t *testing.T) {
	pop := tags.Generate(2000, tags.T1, 5)
	engines := []struct {
		name string
		e    OccupancyEngine
	}{
		{"balls", NewBallsEngine(100000, 3)},
		{"tag ideal-rn", NewTagEngine(pop, IdealRN)},
		{"tag ideal-id", NewTagEngine(pop, IdealID)},
		{"tag paper-xor", NewTagEngine(pop, PaperXOR)},
	}
	geometries := []struct {
		name string
		req  FrameRequest
	}{
		{"uniform", FrameRequest{W: 8192, K: 3, P: 0.1}},
		{"geometric", FrameRequest{W: 32, K: 3, P: 0.5, Dist: Geometric}},
		{"k=12", FrameRequest{W: 8192, K: 12, P: 0.1}},
	}
	for _, eng := range engines {
		for _, geo := range geometries {
			e, req := eng.e, geo.req
			e.RunFrame(req)
			e.RunFrameOccupancy(req)
			calls := []struct {
				name string
				run  func()
			}{
				{"RunFrame", func() { e.RunFrame(req) }},
				{"RunFrame prefix", func() { req.Observe = req.W / 8; e.RunFrame(req); req.Observe = 0 }},
				{"RunFrameOccupancy", func() { e.RunFrameOccupancy(req) }},
				{"FirstResponse", func() { e.FirstResponse(req, 0) }},
			}
			for _, call := range calls {
				if got := testing.AllocsPerRun(20, func() { req.Seed++; call.run() }); got != 0 {
					t.Errorf("%s %s %s: %v allocations per warm call", eng.name, geo.name, call.name, got)
				}
			}
		}
	}
}
