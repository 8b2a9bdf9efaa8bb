package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rfidest"
)

// TestJobResultWireFormat pins the JobResult JSON schema: lowerCamel keys,
// process-local fields (System, Options, Err) excluded, Failure
// carrying the error text.
func TestJobResultWireFormat(t *testing.T) {
	res := JobResult{
		Job:      Job{Name: "j0", System: rfidest.NewSystem(10, rfidest.WithSynthetic()), Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		Index:    3,
		Err:      errors.New("boom"),
		Failure:  "boom",
		FailedAt: 1,
		Estimates: []rfidest.Estimate{
			{N: 12.5, Seconds: 0.25, Slots: 7, ReaderBits: 8, Rounds: 1, Guarded: true, TagTransmissions: -1},
		},
		MeanAbsErr:    0.5,
		MaxAbsErr:     0.5,
		AirSeconds:    0.25,
		Transmissions: -1,
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"job":{"name":"j0","estimator":"BFCE","epsilon":0.1,"delta":0.1,"trials":2},` +
		`"index":3,"estimates":[{"n":12.5,"seconds":0.25,"slots":7,"readerBits":8,` +
		`"rounds":1,"guarded":true,"tagTransmissions":-1}],"failure":"boom","failedAt":1,` +
		`"meanAbsErr":0.5,"maxAbsErr":0.5,"airSeconds":0.25,"transmissions":-1}`
	if string(got) != want {
		t.Errorf("JobResult wire format drifted:\n got  %s\n want %s", got, want)
	}
	for _, forbidden := range []string{"System", "Options", `"Err"`} {
		if strings.Contains(string(got), forbidden) {
			t.Errorf("process-local field %s leaked onto the wire: %s", forbidden, got)
		}
	}

	var back JobResult
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	// Err and System are deliberately not on the wire; compare the rest.
	res.Err, res.Job.System = nil, nil
	if !reflect.DeepEqual(back, res) {
		t.Errorf("JobResult did not round-trip:\n got  %+v\n want %+v", back, res)
	}
}

// TestReportJSONRoundTrip marshals a live batch Report and requires the
// wire-visible fields to survive the round trip bit-exactly.
func TestReportJSONRoundTrip(t *testing.T) {
	sys := rfidest.NewSystem(5000, rfidest.WithSynthetic(), rfidest.WithSeed(3))
	rep, err := Run(context.Background(), Config{Seed: 7, Workers: 2}, []Job{
		{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1, Trials: 2},
		{System: sys, Estimator: "ZOE-batched", Epsilon: 0.1, Delta: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	// Strip the process-local fields the wire never carries.
	want := *rep
	want.Jobs = append([]JobResult(nil), rep.Jobs...)
	for i := range want.Jobs {
		want.Jobs[i].Job.System = nil
		want.Jobs[i].Job.Options = nil
		want.Jobs[i].Err = nil
	}
	if !reflect.DeepEqual(back, want) {
		t.Errorf("Report did not round-trip:\n got  %+v\n want %+v", back, want)
	}
}

// TestJobOptionsSaltOverride: a WithSeedSalt in Job.Options overrides the
// fleet-derived trial salt, so the job's single trial is bit-identical to a
// direct salted Run.
func TestJobOptionsSaltOverride(t *testing.T) {
	sys := rfidest.NewSystem(5000, rfidest.WithSynthetic(), rfidest.WithSeed(3))
	const salt = 0xfeedbeef
	want, err := sys.Run(context.Background(),
		rfidest.WithAccuracy(0.1, 0.1), rfidest.WithSeedSalt(salt))
	if err != nil {
		t.Fatal(err)
	}
	for _, interleave := range []bool{false, true} {
		rep, err := Run(context.Background(), Config{Seed: 99, Interleave: interleave}, []Job{{
			System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
			Options: []rfidest.Option{rfidest.WithSeedSalt(salt)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Jobs[0].Estimates) != 1 || rep.Jobs[0].Estimates[0] != want {
			t.Errorf("interleave=%v: salted job option did not replay the direct run:\n got  %+v\n want %+v",
				interleave, rep.Jobs[0].Estimates, want)
		}
	}
}

// TestJobOptionsTimeout: rfidest.WithTimeout via Job.Options bounds a trial
// in interleaved mode; an immediate deadline fails the trial without
// failing its siblings.
func TestJobOptionsTimeout(t *testing.T) {
	sys := rfidest.NewSystem(5000, rfidest.WithSynthetic(), rfidest.WithSeed(3))
	rep, err := Run(context.Background(), Config{Seed: 7, Interleave: true}, []Job{
		{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1,
			Options: []rfidest.Option{rfidest.WithTimeout(1)}}, // 1ns: expires before round 1
		{System: sys, Estimator: "BFCE", Epsilon: 0.1, Delta: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Err == nil {
		t.Error("1ns per-trial timeout did not fail the job")
	}
	if rep.Jobs[0].Failure == "" {
		t.Error("failed job has no wire Failure text")
	}
	if rep.Jobs[1].Err != nil || len(rep.Jobs[1].Estimates) != 1 {
		t.Errorf("sibling job was perturbed by job 0's timeout: %+v", rep.Jobs[1])
	}
}
