package rfidest

// Pinned outputs of Monitor.Run and RunBFCEDetail. Both JSON files under
// testdata/ were captured from the implementation that ran each entry point
// through its own hand-written loop, before they were moved onto the
// shared RunSession loop; every value must still replay exactly. The
// synthetic entries (every row of bfce_detail_pins.json but n = 0) were
// captured again when the synthetic engine began sampling only the heard
// prefix of BFCE's probe and rough frames. To regenerate after an
// intentional behaviour change, marshal monitorPinGrid() and
// bfceDetailPinGrid() with json.MarshalIndent(v, "", "\t").

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"rfidest/internal/obs"
)

type monitorPinRound struct {
	N        int          `json:"n"`
	Estimate Estimate     `json:"estimate"`
	State    MonitorState `json:"state"`
}

type monitorPin struct {
	Name     string            `json:"name"`
	Rounds   []monitorPinRound `json:"rounds"`
	Registry MetricsSnapshot   `json:"registry"`
}

// monitorPinGrid drives fastRounds {0, 1, 3} × synthetic and tag-level
// deployments through eight drifting rounds that end in a crash to n = 0,
// alternating salted and counter-derived sessions, with one metrics
// registry attached to every round of a case.
func monitorPinGrid() ([]monitorPin, error) {
	ctx := context.Background()
	var out []monitorPin
	for _, fast := range []int{0, 1, 3} {
		for _, synthetic := range []bool{true, false} {
			base, kind := 20000, "tag"
			if synthetic {
				base, kind = 300000, "synthetic"
			}
			pin := monitorPin{Name: fmt.Sprintf("fast%d-%s", fast, kind)}
			m, err := NewMonitor(0.05, 0.05, fast)
			if err != nil {
				return nil, err
			}
			reg := NewMetrics()
			for r := 0; r < 8; r++ {
				n := base + base*4*r/100
				if r == 7 {
					n = 0
				}
				sysOpts := []SystemOption{WithSeed(uint64(9000 + r))}
				if synthetic {
					sysOpts = append(sysOpts, WithSynthetic())
				}
				opts := []Option{WithObserver(reg)}
				if r%2 == 0 {
					opts = append(opts, WithSeedSalt(uint64(0x5a17+r)))
				}
				est, err := m.Run(ctx, NewSystem(n, sysOpts...), opts...)
				if err != nil {
					return nil, fmt.Errorf("%s round %d: %w", pin.Name, r, err)
				}
				pin.Rounds = append(pin.Rounds, monitorPinRound{N: n, Estimate: est, State: m.Snapshot()})
			}
			pin.Registry = reg.Snapshot()
			out = append(out, pin)
		}
	}
	return out, nil
}

type bfceDetailPinRow struct {
	N      int        `json:"n"`
	Salt   uint64     `json:"salt"`
	Detail BFCEDetail `json:"detail"`
}

type bfceDetailPins struct {
	Rows     []bfceDetailPinRow `json:"rows"`
	Registry MetricsSnapshot    `json:"registry"`
}

// bfceDetailPinGrid runs RunBFCEDetail without retry over synthetic
// systems with seed 8 at the default (0.05, 0.05), salts 0–5, with one
// registry observing every run.
func bfceDetailPinGrid() (bfceDetailPins, error) {
	var out bfceDetailPins
	reg := NewMetrics()
	for _, n := range []int{0, 1, 50, 1000, 2000, 20000, 1000000} {
		sys := NewSystem(n, WithSeed(8), WithSynthetic())
		for salt := uint64(0); salt < 6; salt++ {
			det, err := sys.RunBFCEDetail(context.Background(), WithSeedSalt(salt), WithObserver(reg))
			if err != nil {
				return out, fmt.Errorf("n=%d salt=%d: %w", n, salt, err)
			}
			out.Rows = append(out.Rows, bfceDetailPinRow{N: n, Salt: salt, Detail: det})
		}
	}
	out.Registry = reg.Snapshot()
	return out, nil
}

// comparePins decodes the golden file into a value of got's type and
// compares it with got after the same JSON round trip; on a difference it
// prints got in the golden file's format.
func comparePins[T any](t *testing.T, file string, got T) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want T
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var norm T
	if err := json.Unmarshal(enc, &norm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm, want) {
		gotJSON, _ := json.MarshalIndent(norm, "", "\t")
		t.Errorf("%s no longer replays; got:\n%s", file, gotJSON)
	}
}

func TestMonitorRunPinned(t *testing.T) {
	got, err := monitorPinGrid()
	if err != nil {
		t.Fatal(err)
	}
	comparePins(t, "testdata/monitor_run_pins.json", got)
}

func TestRunBFCEDetailPinned(t *testing.T) {
	got, err := bfceDetailPinGrid()
	if err != nil {
		t.Fatal(err)
	}
	comparePins(t, "testdata/bfce_detail_pins.json", got)
}

// eventLog records every observer hook as a line of text, so two runs'
// observer streams can be compared event for event.
type eventLog []string

func (l *eventLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

func (l *eventLog) SessionOpen(name string)                { l.add("open %s", name) }
func (l *eventLog) SessionClose(s obs.SessionStats)        { l.add("close %+v", s) }
func (l *eventLog) PhaseStart(p obs.Phase)                 { l.add("phase-start %v", p) }
func (l *eventLog) PhaseEnd(p obs.Phase, s obs.PhaseStats) { l.add("phase-end %v %+v", p, s) }
func (l *eventLog) Frame(p obs.Phase, f obs.FrameStats)    { l.add("frame %v %+v", p, f) }
func (l *eventLog) Broadcast(p obs.Phase, bits int)        { l.add("broadcast %v %d", p, bits) }
func (l *eventLog) Listen(p obs.Phase, slots int)          { l.add("listen %v %d", p, slots) }
func (l *eventLog) ProbeRounds(rounds int)                 { l.add("probe-rounds %d", rounds) }
func (l *eventLog) EstimateError(relErr float64)           { l.add("rel-err %v", relErr) }
func (l *eventLog) Faults(s obs.FaultStats)                { l.add("faults %+v", s) }
func (l *eventLog) Retry(name string, attempt int)         { l.add("retry %s %d", name, attempt) }
func (l *eventLog) Degraded(name string)                   { l.add("degraded %s", name) }

// TestBFCEDetailObserverStreamMatchesRun: the detail path reports exactly
// the events Run reports for the same options — with and without retry, on
// clean, saturating and faulted deployments.
func TestBFCEDetailObserverStreamMatchesRun(t *testing.T) {
	systems := map[string]*System{
		"tag":       NewSystem(20000, WithSeed(42)),
		"empty":     NewSystem(0, WithSeed(8)),
		"faulted":   NewSystem(20000, WithSeed(31), WithFaults(FaultSeverity(0.5))),
		"synthetic": NewSystem(1000, WithSeed(8), WithSynthetic()),
	}
	for name, sys := range systems {
		for _, opts := range [][]Option{
			{WithSeedSalt(3)},
			{WithSeedSalt(3), WithRetry(2, 0)},
		} {
			var runLog, detLog eventLog
			est, err := sys.Run(context.Background(), append(opts, WithObserver(&runLog))...)
			if err != nil {
				t.Fatal(err)
			}
			det, err := sys.RunBFCEDetail(context.Background(), append(opts, WithObserver(&detLog))...)
			if err != nil {
				t.Fatal(err)
			}
			if det.Estimate != est {
				t.Errorf("%s: detail %+v != Run %+v", name, det.Estimate, est)
			}
			if !reflect.DeepEqual(detLog, runLog) {
				t.Errorf("%s: observer streams differ:\ndetail %q\nrun    %q", name, detLog, runLog)
			}
		}
	}
}
