package analysis_test

import (
	"testing"

	"rfidest/internal/analysis"
	"rfidest/internal/analysis/analysistest"
)

func TestBoolFrameGolden(t *testing.T) {
	analysistest.Run(t, analysis.BoolFrame, "testdata/boolframe")
}

func TestBoolFrameScope(t *testing.T) {
	for rel, covered := range map[string]bool{
		".":                   true,
		"internal/channel":    true,
		"internal/core":       true,
		"internal/estimators": true,
		"internal/experiment": true,
		"internal/fleet":      true,
		"internal/missing":    true,
		"internal/bitset":     false, // owns the packed type and its []bool bridges
		"internal/stats":      false,
		"internal/workload":   false,
		"cmd/rfidest":         false,
		"examples/quickstart": false,
	} {
		if got := analysis.BoolFrame.AppliesTo(rel); got != covered {
			t.Errorf("boolframe covers %q = %v, want %v", rel, got, covered)
		}
	}
}
