package experiment

import "testing"

func ablOpts() Options {
	o := DefaultOptions()
	o.Trials = 2
	return o
}

func TestAblationKSweep(t *testing.T) {
	tab := AblationK(ablOpts())
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Seed-bit column grows linearly with k.
	if tab.Rows[0][4] != "64" || tab.Rows[7][4] != "288" {
		t.Fatalf("seed bits column wrong: %v / %v", tab.Rows[0], tab.Rows[7])
	}
}

func TestAblationWSweep(t *testing.T) {
	tab := AblationW(ablOpts())
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Max cardinality scales with w.
	first := cellFloat(t, tab.Rows[0][4])
	last := cellFloat(t, tab.Rows[6][4])
	if last < 60*first {
		t.Fatalf("max cardinality did not scale with w: %v → %v", first, last)
	}
}

func TestAblationCSweep(t *testing.T) {
	tab := AblationC(ablOpts())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At c=0.1 the lower bound must never exceed n; violations can only
	// appear as c grows.
	if v := cellFloat(t, tab.Rows[0][3]); v != 0 {
		t.Fatalf("c=0.1 lower-bound violation rate = %v", v)
	}
}

func TestAblationRoughSlotsSweep(t *testing.T) {
	tab := AblationRoughSlots(ablOpts())
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAblationHashModeAllAccurate(t *testing.T) {
	o := ablOpts()
	tab := AblationHashMode(o)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if acc := cellFloat(t, cell); acc > 0.08 {
				t.Fatalf("hash mode %s accuracy %v too poor", row[0], acc)
			}
		}
	}
}

func TestAblationNoiseDegradesGracefully(t *testing.T) {
	tab := AblationNoise(ablOpts())
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	clean := cellFloat(t, tab.Rows[0][2])
	worst := cellFloat(t, tab.Rows[6][2])
	if clean > 0.05 {
		t.Fatalf("clean-channel accuracy %v", clean)
	}
	if worst <= clean {
		t.Fatalf("5%% symmetric noise should hurt: clean %v worst %v", clean, worst)
	}
}

func TestBakeoffRunsAll(t *testing.T) {
	tab := Bakeoff(ablOpts())
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	names := map[string]bool{}
	for _, row := range tab.Rows {
		names[row[0]] = true
		if sec := cellFloat(t, row[3]); sec <= 0 {
			t.Fatalf("%s has no cost", row[0])
		}
	}
	for _, want := range []string{"BFCE", "ZOE", "SRC", "LOF", "UPE", "EZB", "FNEB", "MLE", "ART", "PET"} {
		if !names[want] {
			t.Fatalf("bake-off missing %s", want)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	if len(IDs()) != 25 {
		t.Fatalf("registry size = %d", len(IDs()))
	}
	for _, id := range IDs() {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("id %q not resolvable", id)
		}
		if Describe(id) == "" {
			t.Fatalf("id %q has no description", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id resolved")
	}
	if Describe("nope") != "" {
		t.Fatal("unknown id described")
	}
}
