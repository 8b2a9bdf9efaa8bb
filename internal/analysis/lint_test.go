package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"rfidest/internal/analysis"
)

// TestRepositoryIsLintClean is the acceptance gate in test form: the full
// analyzer registry over the whole module must report nothing. Every
// deliberate exception in the tree carries a //lint:allow comment with a
// reason; a failure here means a new contract violation (or an exception
// that has not justified itself).
func TestRepositoryIsLintClean(t *testing.T) {
	diags, err := analysis.Lint(analysis.All(), []string{"../../..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSeededViolationsAreExclusive runs the FULL registry over each
// testdata package and asserts the seeded violations are reported by
// exactly the analyzer the package targets — no cross-reports. (The
// per-analyzer golden tests check the expected findings line by line;
// this closes the other direction.)
func TestSeededViolationsAreExclusive(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"detrand", "atomicmix", "floatcmp", "seedlit", "metricreg",
		"seedflow", "errdrop", "obspair"} {
		pkg, err := loader.LoadDir("testdata/" + target)
		if err != nil {
			t.Fatalf("load testdata/%s: %v", target, err)
		}
		for _, a := range analysis.All() {
			res, err := analysis.CheckPackage(a, pkg)
			if err != nil {
				t.Fatalf("%s on testdata/%s: %v", a.Name, target, err)
			}
			diags := res.Diagnostics
			if a.Name == target {
				if len(diags) == 0 {
					t.Errorf("%s reported nothing on its own testdata", a.Name)
				}
				continue
			}
			for _, d := range diags {
				t.Errorf("%s cross-reported on testdata/%s: %s", a.Name, target, d)
			}
		}
	}
}

// TestSeedFlowDefersDirectRootsToSeedlit pins the seedlit/seedflow
// partition at the DRIVER level: Lint fact-scans internal/xrand itself,
// whose constructor bodies thread seed onward, so xrand.New carries a
// seedParam fact — without sink precedence that fact would make seedflow
// re-report every syntactic constant seedlit already owns. (The harness
// golden tests cannot catch this: they do not fact-scan dependencies.)
func TestSeedFlowDefersDirectRootsToSeedlit(t *testing.T) {
	diags, err := analysis.Lint([]*analysis.Analyzer{analysis.SeedFlow}, []string{"testdata/seedlit"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("seedflow reported on seedlit territory: %s", d)
	}
}

// TestLintCrossPackageFacts exercises the full interprocedural driver
// path: linting ONLY testdata/factuse must still catch the constant
// laundered through factsrc.NewGen, because Lint loads the dependency
// closure and runs seedflow fact-only over factsrc before reporting on
// factuse. It also pins suppression of a fact-derived diagnostic whose
// evidence lives in another package (the sanctioned call), and silence
// on the threaded call.
func TestLintCrossPackageFacts(t *testing.T) {
	diags, err := analysis.Lint([]*analysis.Analyzer{analysis.SeedFlow}, []string{"testdata/factuse"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (pinned; sanctioned suppressed, threaded silent):\n%v",
			len(diags), diags)
	}
	d := diags[0]
	if !strings.HasSuffix(filepath.ToSlash(d.Pos.Filename), "testdata/factuse/factuse.go") {
		t.Errorf("finding in %s, want factuse.go", d.Pos.Filename)
	}
	if !strings.Contains(d.Message, "constant seed flows through NewGen") {
		t.Errorf("unexpected message: %s", d.Message)
	}
}
