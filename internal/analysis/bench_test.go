package analysis_test

import (
	"testing"

	"rfidest/internal/analysis"
)

// BenchmarkLintLoad measures the full lint pipeline on a representative
// target: pattern expansion, loading internal/fleet plus its transitive
// module-internal dependency closure (type-checked from source, stdlib
// included), call-graph construction, and all ten analyzers with fact
// propagation. Each iteration builds a fresh loader — cold-cache cost is
// the number CI pays on every push, so that is the number tracked.
func BenchmarkLintLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, err := analysis.Lint(analysis.All(), []string{"../fleet"})
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("internal/fleet is not lint-clean: %v", diags)
		}
	}
}
