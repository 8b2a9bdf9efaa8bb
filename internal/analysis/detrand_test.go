package analysis_test

import (
	"testing"

	"rfidest/internal/analysis"
	"rfidest/internal/analysis/analysistest"
)

func TestDetRandGolden(t *testing.T) {
	analysistest.Run(t, analysis.DetRand, "testdata/detrand")
}

func TestDetRandScope(t *testing.T) {
	for rel, covered := range map[string]bool{
		".":                   true,
		"internal/channel":    true,
		"internal/stats":      true,
		"internal/xrand":      true,
		"internal/fleet":      true, // covered; exemptions are per-line //lint:allow
		"internal/analysis":   true,
		"cmd":                 false,
		"cmd/rfidest":         false,
		"cmd/experiments":     false,
		"examples":            false,
		"examples/quickstart": false,
	} {
		if got := analysis.DetRand.AppliesTo(rel); got != covered {
			t.Errorf("detrand covers %q = %v, want %v", rel, got, covered)
		}
	}
}
