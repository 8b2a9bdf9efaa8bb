// Package analysistest runs an analyzer over a testdata package and
// checks its findings against // want expectation comments, golden-file
// style:
//
//	now := time.Now() // want `time\.Now reads the wall clock`
//
// Each want comment carries a regular expression (backquoted, or quoted
// with Go escaping) that must match the message of a finding reported on
// that line; every finding must in turn be claimed by a want. Multiple
// want comments on one line expect multiple findings. Suppression is
// exercised the same way: a line with a //lint:allow comment and no want
// asserts the finding is filtered.
//
// Interprocedural analyzers are additionally checked against // wantfact
// comments on function declaration lines:
//
//	func newEngine(seed uint64) *xrand.Rand { // wantfact `root seed flows in through parameter 0`
//
// Every fact the analyzer exports about a function declared in the
// package must be claimed by a wantfact on the declaration's line, and
// every wantfact must match an exported fact — the same two-way diff as
// findings, so tests pin the exact fact surface.
//
// RunFix exercises suggested fixes: it applies every fix the analyzer
// reports and compares each changed file against a <file>.golden sibling.
//
// The analyzer's AppliesTo scope is deliberately ignored (see
// analysis.CheckPackage), so testdata packages can live under internal/analysis
// regardless of which packages the analyzer covers in production.
package analysistest

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rfidest/internal/analysis"
)

// wantRe matches one expectation: // want `regexp` or // want "regexp".
var wantRe = regexp.MustCompile("// want (?:`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\")")

// wantfactRe matches one fact expectation: // wantfact `regexp`.
var wantfactRe = regexp.MustCompile("// wantfact `([^`]*)`")

type expectation struct {
	re   *regexp.Regexp
	used bool
}

type lineKey struct {
	file string
	line int
}

// Run loads the package in dir (relative to the calling test), runs the
// analyzer through the full pipeline (type-check, Run, suppression), and
// diffs the findings against the package's want comments and the
// exported facts against its wantfact comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkg, res := check(t, a, dir)

	wants := collectExpectations(t, pkg, wantRe)
	for _, d := range res.Diagnostics {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		if !claim(wants[k], d.Message) {
			t.Errorf("%s: unexpected finding: %s", d.Pos, d.Message)
		}
	}
	reportUnused(t, wants, a.Name+" finding")

	wantfacts := collectExpectations(t, pkg, wantfactRe)
	for _, sym := range res.Facts.Symbols(a.Name) {
		node := res.Graph.Node(sym)
		if node == nil || node.Decl == nil {
			continue // fact about a symbol declared outside the package
		}
		pos := pkg.Fset.Position(node.Decl.Pos())
		k := lineKey{pos.Filename, pos.Line}
		for _, f := range res.Facts.Facts(a.Name, sym) {
			if !claim(wantfacts[k], f.String()) {
				t.Errorf("%s: unexpected fact on %s: %s", pos, sym, f)
			}
		}
	}
	reportUnused(t, wantfacts, a.Name+" fact")
}

// RunFix applies every suggested fix the analyzer reports on the package
// in dir and compares each changed file against its <file>.golden
// sibling; files without fixes must have no golden, and a second
// application over the fixed sources must change nothing (fixes are
// idempotent by contract — see TestFixIdempotence for the type-checked
// version of that property).
func RunFix(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkg, res := check(t, a, dir)

	fixed, applied, err := analysis.ApplyFixes(res.Diagnostics, pkg.Src)
	if err != nil {
		t.Fatalf("apply fixes: %v", err)
	}
	if applied == 0 {
		t.Fatalf("no fixes applied in %s; RunFix needs at least one suggested fix", dir)
	}
	for file := range pkg.Src {
		golden := file + ".golden"
		want, err := os.ReadFile(golden)
		got, changed := fixed[file]
		switch {
		case err == nil && !changed:
			t.Errorf("%s exists but no fix changed %s", golden, file)
		case err != nil && changed:
			t.Errorf("fixes changed %s but %s does not exist", file, golden)
		case err == nil && changed && string(got) != string(want):
			t.Errorf("fixed %s differs from golden:\n%s", file,
				analysis.UnifiedDiff(golden, want, got))
		}
	}
}

// check loads dir and runs the analyzer with full interprocedural
// context.
func check(t *testing.T, a *analysis.Analyzer, dir string) (*analysis.Package, *analysis.Result) {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	res, err := analysis.CheckPackage(a, pkg)
	if err != nil {
		t.Fatalf("check %s: %v", dir, err)
	}
	return pkg, res
}

// collectExpectations scans the package sources for expectation comments
// matching re (whose first or second submatch is the pattern).
func collectExpectations(t *testing.T, pkg *analysis.Package, re *regexp.Regexp) map[lineKey][]*expectation {
	t.Helper()
	wants := make(map[lineKey][]*expectation)
	for file, src := range pkg.Src {
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range re.FindAllStringSubmatch(line, -1) {
				pattern := m[1]
				if pattern == "" && len(m) > 2 && m[2] != "" {
					unquoted, err := strconv.Unquote(`"` + m[2] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want string: %v", file, i+1, err)
					}
					pattern = unquoted
				}
				cre, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", file, i+1, pattern, err)
				}
				k := lineKey{file, i + 1}
				wants[k] = append(wants[k], &expectation{re: cre})
			}
		}
	}
	return wants
}

// claim marks the first unused expectation matching msg as used.
func claim(ws []*expectation, msg string) bool {
	for _, w := range ws {
		if !w.used && w.re.MatchString(msg) {
			w.used = true
			return true
		}
	}
	return false
}

// reportUnused fails the test for every expectation nothing matched.
func reportUnused(t *testing.T, wants map[lineKey][]*expectation, what string) {
	t.Helper()
	for k, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no %s matched %q", k.file, k.line, what, w.re)
			}
		}
	}
}
