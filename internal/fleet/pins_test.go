package fleet

// Pinned fleet reports. testdata/fleet_pins.json was captured from the
// runner that ran pooled trials through System.Run and interleaved trials
// through a hand-written copy of that loop, before both modes were moved
// onto jobRunner; every value must still replay exactly. It was captured
// again when every protocol began stepping natively: UPE's slot-state
// frames now reach the registries' frame and slot counters, and the
// interleaved schedRounds counts the protocols' real rounds. No job sets a
// retry count, and the registries' degraded counters are left out: fleet
// used to emit its own Degraded hook for saturated trials. The synthetic
// BFCE, BFCE-multi and salted jobs, and the aggregates and registries
// built from them, were captured again when the synthetic engine began
// sampling only the heard prefix of BFCE's probe and rough frames. To
// regenerate after an intentional behaviour change, marshal
// fleetPinGrid() with json.MarshalIndent(v, "", "\t").

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"rfidest"
	"rfidest/internal/obs"
)

type fleetPins struct {
	// Reports holds one Report per mode ("pooled-1", "pooled-3",
	// "interleaved"), without its wall-clock fields.
	Reports map[string]*Report `json:"reports"`
	// Registries holds the metrics snapshot of the "pooled-1" and
	// "interleaved" runs. Pooled runs on several workers add histogram
	// floats in scheduling order, so their sums are not pinned.
	Registries map[string]obs.Snapshot `json:"registries"`
}

// pinBatch is the pinned workload: the twelve registry estimators over one
// synthetic system, then tag-level, noisy, faulted, empty, pinned-salt and
// unknown-estimator jobs.
func pinBatch() []Job {
	synth := rfidest.NewSystem(30000, rfidest.WithSeed(5), rfidest.WithSynthetic())
	var jobs []Job
	for _, name := range rfidest.Estimators() {
		jobs = append(jobs, Job{System: synth, Estimator: name, Epsilon: 0.2, Delta: 0.2, Trials: 2})
	}
	return append(jobs,
		Job{Name: "tag-level", System: rfidest.NewSystem(20000, rfidest.WithSeed(6)),
			Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		Job{Name: "noisy", System: rfidest.NewSystem(25000, rfidest.WithSeed(7), rfidest.WithNoise(0.001, 0.001)),
			Estimator: "SRC", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		Job{Name: "faulted", System: rfidest.NewSystem(20000, rfidest.WithSeed(91), rfidest.WithFaults(rfidest.FaultSeverity(0.5))),
			Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 3},
		Job{Name: "empty", System: rfidest.NewSystem(0, rfidest.WithSeed(92)),
			Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		Job{Name: "salted", System: synth, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2,
			Options: []rfidest.Option{rfidest.WithSeedSalt(0x5a17)}},
		Job{Name: "unknown", System: synth, Estimator: "BFEC", Epsilon: 0.1, Delta: 0.1, Trials: 2},
	)
}

// fleetPinGrid runs pinBatch in pooled mode on one and on three workers
// and in interleaved mode, each with its own registry attached.
func fleetPinGrid() (fleetPins, error) {
	pins := fleetPins{Reports: map[string]*Report{}, Registries: map[string]obs.Snapshot{}}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"pooled-1", Config{Workers: 1}},
		{"pooled-3", Config{Workers: 3}},
		{"interleaved", Config{Interleave: true}},
	} {
		reg := obs.NewRegistry()
		cfg := mode.cfg
		cfg.Seed, cfg.Observer = 0x9e1f, reg
		rep, err := Run(context.Background(), cfg, pinBatch())
		if err != nil {
			return pins, err
		}
		pins.Reports[mode.name] = stripWall(rep)
		if mode.name != "pooled-3" {
			pins.Registries[mode.name] = withoutDegraded(reg.Snapshot())
		}
	}
	return pins, nil
}

// withoutDegraded zeroes the snapshot's degraded counters.
func withoutDegraded(s obs.Snapshot) obs.Snapshot {
	s.Degraded = 0
	s.Estimators = append([]obs.EstimatorSnapshot(nil), s.Estimators...)
	for i := range s.Estimators {
		s.Estimators[i].Degraded = 0
	}
	return s
}

func TestFleetPinned(t *testing.T) {
	got, err := fleetPinGrid()
	if err != nil {
		t.Fatal(err)
	}
	const file = "testdata/fleet_pins.json"
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want fleetPins
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// Compare after the same JSON round trip the golden file went through:
	// process-local fields (System, Options, Err) never reach it.
	enc, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var norm fleetPins
	if err := json.Unmarshal(enc, &norm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm, want) {
		gotJSON, _ := json.MarshalIndent(norm, "", "\t")
		t.Errorf("%s no longer replays; got:\n%s", file, gotJSON)
	}
}
