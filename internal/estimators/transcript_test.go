package estimators

import (
	"testing"

	"rfidest/internal/channel"
)

// collectTrace runs an estimator with tracing enabled and returns the
// event list.
func collectTrace(t *testing.T, e Estimator, n int, acc Accuracy, seed uint64) []channel.TraceEvent {
	t.Helper()
	r := channel.NewReader(channel.NewBallsEngine(n, seed), seed+1)
	var events []channel.TraceEvent
	r.SetTrace(func(ev channel.TraceEvent) { events = append(events, ev) })
	if _, err := e.Estimate(r, acc); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestZOETranscript pins ZOE's defining dialogue: after the 10-round LOF
// rough phase, every accurate-phase slot is its own (broadcast, 1-slot
// frame) pair — the structure that makes its time reader-dominated.
func TestZOETranscript(t *testing.T) {
	events := collectTrace(t, NewZOE(), 100000, Default, 61)
	m, err := ZOESlots(Default)
	if err != nil {
		t.Fatal(err)
	}
	var lofFrames, slotFrames, broadcasts int
	for _, e := range events {
		switch {
		case e.Kind == "frame" && e.W == 32:
			lofFrames++
		case e.Kind == "frame" && e.W == 1:
			slotFrames++
		case e.Kind == "broadcast":
			broadcasts++
		}
	}
	if lofFrames != 10 {
		t.Fatalf("LOF rough frames = %d, want 10", lofFrames)
	}
	if slotFrames != m {
		t.Fatalf("single-slot frames = %d, want %d", slotFrames, m)
	}
	if broadcasts != 10+m {
		t.Fatalf("broadcasts = %d, want %d (one per LOF round + one per slot)", broadcasts, 10+m)
	}
}

// TestSRCTranscript pins SRC's dialogue: one LOF round, then exactly
// SRCRounds frames of SRCFrameSize slots, each under a single broadcast.
func TestSRCTranscript(t *testing.T) {
	events := collectTrace(t, NewSRC(), 100000, Default, 63)
	l, err := SRCFrameSize(Default.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	rounds := SRCRounds(Default.Delta)
	var accurate int
	for _, e := range events {
		if e.Kind == "frame" && e.W == l {
			accurate++
			if e.Observe != l {
				t.Fatalf("accurate frame truncated: %+v", e)
			}
		}
	}
	if accurate != rounds {
		t.Fatalf("accurate frames = %d, want %d", accurate, rounds)
	}
}

// TestBFCEMultiTranscript: R rounds, each with the single-protocol shape
// (3+probe broadcasts, 3+probe frames).
func TestBFCEMultiTranscript(t *testing.T) {
	events := collectTrace(t, &BFCEMulti{Rounds: 2}, 100000, Default, 65)
	fullFrames := 0
	for _, e := range events {
		if e.Kind == "frame" && e.Observe == 8192 {
			fullFrames++
		}
	}
	if fullFrames != 2 {
		t.Fatalf("accurate frames = %d, want 2 (one per round)", fullFrames)
	}
}

// TestZOEBatchedTranscript: exactly one broadcast before the observation
// run — the whole point of the ablation.
func TestZOEBatchedTranscript(t *testing.T) {
	events := collectTrace(t, NewZOEBatched(), 100000, Default, 67)
	broadcasts := 0
	for _, e := range events {
		if e.Kind == "broadcast" {
			broadcasts++
		}
	}
	// 10 LOF seed broadcasts + 1 batched-phase broadcast.
	if broadcasts != 11 {
		t.Fatalf("broadcasts = %d, want 11", broadcasts)
	}
}
