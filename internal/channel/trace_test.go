package channel

import (
	"strings"
	"testing"

	"rfidest/internal/tags"
)

func TestTraceRecordsDialogue(t *testing.T) {
	pop := tags.Generate(1000, tags.T1, 111)
	r := NewReader(NewTagEngine(pop, IdealRN), 112)
	var events []TraceEvent
	r.SetTrace(func(e TraceEvent) { events = append(events, e) })

	r.BroadcastParams(128)
	r.ExecuteFrame(FrameRequest{W: 512, K: 2, P: 0.5, Seed: 1})
	r.scanFirstBusy(FrameRequest{W: 1 << 16, K: 1, P: 1, Seed: 2}, 1<<16)
	r.listenSlots(3)

	if len(events) != 4 {
		t.Fatalf("recorded %d events, want 4", len(events))
	}
	if events[0].Kind != "broadcast" || events[0].Bits != 128 {
		t.Fatalf("event 0: %+v", events[0])
	}
	if events[1].Kind != "frame" || events[1].W != 512 || events[1].Observe != 512 {
		t.Fatalf("event 1: %+v", events[1])
	}
	if events[1].Busy <= 0 {
		t.Fatalf("frame with 1000 tags at p=0.5 observed no busy slots")
	}
	if events[2].Kind != "scan" || events[2].Busy < 0 {
		t.Fatalf("event 2: %+v", events[2])
	}
	if events[3].Kind != "probe-slots" || events[3].Bits != 3 {
		t.Fatalf("event 3: %+v", events[3])
	}
}

func TestTraceDisabledByDefaultAndRemovable(t *testing.T) {
	pop := tags.Generate(10, tags.T1, 113)
	r := NewReader(NewTagEngine(pop, IdealRN), 114)
	r.ExecuteFrame(FrameRequest{W: 8, K: 1, P: 1, Seed: 1}) // must not panic
	count := 0
	r.SetTrace(func(TraceEvent) { count++ })
	r.BroadcastParams(1)
	r.SetTrace(nil)
	r.BroadcastParams(1)
	if count != 1 {
		t.Fatalf("trace fired %d times, want 1", count)
	}
}

func TestTraceDoesNotAffectCost(t *testing.T) {
	pop := tags.Generate(100, tags.T1, 115)
	a := NewReader(NewTagEngine(pop, IdealRN), 116)
	b := NewReader(NewTagEngine(pop, IdealRN), 116)
	b.SetTrace(func(TraceEvent) {})
	reqSeed := a.NextSeed()
	_ = b.NextSeed()
	for _, r := range []*Reader{a, b} {
		r.BroadcastParams(64)
		r.ExecuteFrame(FrameRequest{W: 128, K: 1, P: 0.5, Seed: reqSeed})
	}
	if a.Cost() != b.Cost() {
		t.Fatalf("tracing changed the cost: %+v vs %+v", a.Cost(), b.Cost())
	}
}

func TestTraceEventString(t *testing.T) {
	events := []TraceEvent{
		{Kind: "broadcast", Bits: 32},
		{Kind: "frame", W: 8192, K: 3, P: 0.1, Observe: 1024, Busy: 200},
		{Kind: "scan", W: 64, Busy: -1},
		{Kind: "probe-slots", Bits: 5},
		{Kind: "custom"},
	}
	for _, e := range events {
		if e.String() == "" {
			t.Fatalf("empty render for %+v", e)
		}
	}
	if !strings.Contains(events[1].String(), "w=8192") {
		t.Fatalf("frame render missing fields: %s", events[1])
	}
}
