package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// contract is the workload and metric list BENCHMARK.json declares.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the last line is the result object with every promised metric and
// its unit, and that the outputs passed the correctness gate.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	var names []string
	for _, w := range c.Workload {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			cfg := config{workload: w, seed: 7, seconds: 0.1, trace: trace, state: t.TempDir()}
			var out bytes.Buffer
			correct, err := run(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", w, trace, err)
			}
			var keys []string
			for k := range raw {
				keys = append(keys, k)
			}
			if len(keys) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
				t.Fatalf("%s trace=%v: result keys %v", w, trace, keys)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !correct || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, lines[0])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d promised", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, m.Name, got, m.Unit)
				}
			}
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
				t.Fatal(err)
			}
			e2e := rep.Metrics
			if trace {
				e2e = rep.EndToEnd
			}
			if len(e2e) != len(c.EndToEnd)+len(ungated) {
				t.Errorf("%s trace=%v: report prints %d end-to-end metrics, want %d", w, trace, len(e2e), len(c.EndToEnd)+len(ungated))
			}
			for name := range ungated {
				if _, ok := e2e[name]; !ok {
					t.Errorf("%s trace=%v: report lacks %s", w, trace, name)
				}
			}
		}
	}
}

// TestPlanIsSeeded pins that a workload's inputs are a function of the
// seed alone: the same seed replays the identical op plan, another seed
// changes it.
func TestPlanIsSeeded(t *testing.T) {
	draw := func(w string, seed uint64) (p *plan, ops [][]op) {
		p, err := newPlan(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		ops = make([][]op, p.workers)
		for k := range ops {
			for i := 0; i < 256; i++ {
				ops[k] = append(ops[k], p.op(k, i))
			}
		}
		return p, ops
	}
	for _, w := range workloadNames {
		p1, ops1 := draw(w, 1)
		p2, ops2 := draw(w, 1)
		if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(ops1, ops2) {
			t.Errorf("%s: seed 1 drew two different plans", w)
		}
		p3, ops3 := draw(w, 2)
		if reflect.DeepEqual(p1.systems, p3.systems) || reflect.DeepEqual(ops1, ops3) {
			t.Errorf("%s: seeds 1 and 2 drew the same plan", w)
		}
		if w == "baselines-synth" && reflect.DeepEqual(p1.protocols, p3.protocols) {
			t.Errorf("%s: seeds 1 and 2 drew the same protocol rotation", w)
		}
		if w == "serve-rw" {
			for k := range ops1 {
				writes := 0
				for i, o := range ops1[k] {
					if o.Write {
						writes++
					}
					if (i+1)%4 == 0 && writes != (i+1)/4 {
						t.Fatalf("%s: client %d has %d writes in its first %d ops, want one in four", w, k, writes, i+1)
					}
				}
			}
		}
	}
}
