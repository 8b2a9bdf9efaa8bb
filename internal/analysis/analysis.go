// Package analysis is a small, dependency-free static-analysis framework
// for this repository. It exists to machine-check the two contracts the
// reproduction rests on — determinism (all randomness flows through
// internal/xrand, so one 64-bit seed pins an experiment) and atomic access
// to shared counters (the PR-1 session-counter bug class) — instead of
// leaving them to doc comments and -race runs.
//
// The framework is built on the standard library alone (go/parser,
// go/types, go/ast, go/build); it deliberately avoids golang.org/x/tools
// so the module stays zero-dependency. Packages are type-checked with a
// source importer that resolves module-internal imports relative to go.mod
// and standard-library imports from $GOROOT/src (see load.go).
//
// # Writing an analyzer
//
// An Analyzer couples a name, a doc string, an optional package scope, and
// a Run function over a type-checked Pass:
//
//	var Example = &Analyzer{
//		Name:      "example",
//		Doc:       "reports uses of the frobnicate idiom",
//		AppliesTo: func(rel string) bool { return rel == "internal/foo" },
//		Run: func(pass *Pass) error {
//			for _, f := range pass.Files {
//				ast.Inspect(f, func(n ast.Node) bool { ... })
//			}
//			return nil
//		},
//	}
//
// Register it in All, add a testdata package with // want expectations
// (see analysistest), and the cmd/rfidlint driver picks it up.
//
// # Suppression
//
// A finding can be silenced at the use site with a
//
//	//lint:allow <name> <reason>
//
// comment (see suppress.go), either trailing the offending line or on the
// line directly above it. Suppressions are expected to carry a reason;
// they are the mechanism by which deliberate exceptions (for example the
// wall-clock throughput timing in internal/fleet) stay visible in the
// source instead of disappearing into linter configuration.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in reports and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description shown by rfidlint -list.
	Doc string
	// AppliesTo reports whether the analyzer covers the package at the
	// given module-relative path ("." for the module root, or e.g.
	// "internal/fleet"). A nil AppliesTo covers every package. Scoping is
	// applied by Lint; CheckPackage (and the analysistest harness) run the
	// analyzer unconditionally so its behaviour is testable outside the
	// packages it normally covers.
	AppliesTo func(rel string) bool
	// Interprocedural marks analyzers that consume the call graph and
	// exported facts. Lint runs them in fact-only mode over dependency
	// packages outside the lint target set, so cross-package facts are
	// complete no matter which directories were asked for; rfidlint -list
	// surfaces the flag so the tool documents its own reach.
	Interprocedural bool
	// Run reports findings on one type-checked package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path; Rel is the same path relative
	// to the module root ("." for the root package).
	Path string
	Rel  string
	// Graph is the call graph over the analysis scope: the whole loaded
	// package set under Lint, just this package under CheckPackage.
	Graph *CallGraph
	// Facts is the run-shared fact store. Under Lint, facts exported
	// while analyzing a dependency are visible here by the time any of
	// its importers is analyzed (packages run in dependency order).
	Facts *FactStore

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFixf records a finding at pos carrying a suggested fix that
// rfidlint -fix can apply mechanically.
func (p *Pass) ReportFixf(pos token.Pos, fix *SuggestedFix, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// Edit builds a TextEdit replacing the source range [pos, end) with
// newText, resolving positions against the pass's file set. An insertion
// passes end == pos.
func (p *Pass) Edit(pos, end token.Pos, newText string) TextEdit {
	from := p.Fset.Position(pos)
	to := p.Fset.Position(end)
	return TextEdit{File: from.Filename, Start: from.Offset, End: to.Offset, NewText: newText}
}

// ExportFact records a fact about obj in the analyzer's namespace. Facts
// survive the pass: under Lint they are visible to later packages that
// import this one. It reports whether the fact is new, so fixpoint loops
// can detect convergence.
func (p *Pass) ExportFact(obj types.Object, f Fact) bool {
	return p.Facts.add(p.Analyzer.Name, Symbol(obj), f)
}

// FactsOn returns the facts the analyzer holds about obj (exported by
// this pass or any earlier package in the run).
func (p *Pass) FactsOn(obj types.Object) []Fact {
	if obj == nil {
		return nil
	}
	return p.Facts.get(p.Analyzer.Name, Symbol(obj))
}

// Diagnostic is one finding, located and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fix, when non-nil, is a mechanical repair rfidlint -fix applies.
	Fix *SuggestedFix
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// All returns the registry of domain analyzers, in report order.
func All() []*Analyzer {
	return []*Analyzer{DetRand, AtomicMix, FloatCmp, SeedLit, BoolFrame, MetricReg, CtxBg,
		SeedFlow, ErrDrop, ObsPair, RoundLoop, SleepCtx}
}

// Result is one analyzer's output over one package, together with the
// interprocedural context the run produced. The analysistest harness
// uses Facts and Graph to check // wantfact expectations and to apply
// suggested fixes.
type Result struct {
	Diagnostics []Diagnostic
	Facts       *FactStore
	Graph       *CallGraph
}

// CheckPackage runs one analyzer over one loaded package, applies
// //lint:allow suppressions, and returns the surviving findings sorted by
// position, with the fact store and call graph of the (single-package)
// run alongside them. Unlike Lint it ignores the analyzer's AppliesTo
// scope.
func CheckPackage(a *Analyzer, pkg *Package) (*Result, error) {
	graph := NewCallGraph()
	graph.AddPackage(pkg)
	facts := NewFactStore()
	diags, err := runAnalyzer(a, pkg, graph, facts, true)
	if err != nil {
		return nil, err
	}
	return &Result{Diagnostics: diags, Facts: facts, Graph: graph}, nil
}

// runAnalyzer executes one analyzer over one package against the given
// interprocedural context. With report false the diagnostics are
// discarded — the fact-only mode Lint uses on dependency packages.
func runAnalyzer(a *Analyzer, pkg *Package, graph *CallGraph, facts *FactStore, report bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Path:     pkg.Path,
		Rel:      pkg.Rel,
		Graph:    graph,
		Facts:    facts,
		diags:    &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
	}
	if !report {
		return nil, nil
	}
	diags = filterSuppressed(diags, suppressionsFor(pkg))
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders findings by (file, line, column, analyzer,
// message). The message is part of the key so two findings by one
// analyzer on one position — possible since interprocedural passes can
// report a call site once per consumed fact — sort stably, keeping
// golden tests and -json/-sarif output deterministic.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
