package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestApplyEditsBackToFront(t *testing.T) {
	content := []byte("abcdef")
	out, err := applyEdits(content, []TextEdit{
		{File: "x.go", Start: 1, End: 2, NewText: "BB"}, // b -> BB
		{File: "x.go", Start: 4, End: 5, NewText: ""},   // delete e
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out); got != "aBBcdf" {
		t.Errorf("applyEdits = %q, want %q", got, "aBBcdf")
	}
}

func TestApplyEditsRangeCheck(t *testing.T) {
	if _, err := applyEdits([]byte("ab"), []TextEdit{{Start: 1, End: 5}}); err == nil {
		t.Error("out-of-range edit did not error")
	}
}

// TestApplyFixesOverlapDropped pins the conflict rule: when two
// diagnostics' fixes overlap, the earlier diagnostic wins and the later
// fix is dropped — deterministically, since diagnostics arrive sorted.
func TestApplyFixesOverlapDropped(t *testing.T) {
	src := map[string][]byte{"x.go": []byte("package p\n\nvar v = 1\n")}
	edit := func(start, end int, text string) *SuggestedFix {
		return &SuggestedFix{Edits: []TextEdit{{File: "x.go", Start: start, End: end, NewText: text}}}
	}
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "x.go", Line: 3}, Fix: edit(19, 20, "2")},
		{Pos: token.Position{Filename: "x.go", Line: 3}, Fix: edit(19, 20, "3")}, // overlaps: dropped
	}
	fixed, applied, err := ApplyFixes(diags, src)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Errorf("applied = %d, want 1 (overlapping fix dropped)", applied)
	}
	if got := string(fixed["x.go"]); !strings.Contains(got, "var v = 2") {
		t.Errorf("earlier fix did not win:\n%s", got)
	}
}

func TestApplyFixesRejectsInvalidGo(t *testing.T) {
	src := map[string][]byte{"x.go": []byte("package p\n")}
	diags := []Diagnostic{{
		Pos: token.Position{Filename: "x.go", Line: 1},
		Fix: &SuggestedFix{Edits: []TextEdit{{File: "x.go", Start: 0, End: 7, NewText: "pack"}}},
	}}
	if _, _, err := ApplyFixes(diags, src); err == nil {
		t.Error("fix producing invalid Go did not error")
	}
}

func TestUnifiedDiff(t *testing.T) {
	a := []byte("one\ntwo\nthree\nfour\n")
	b := []byte("one\ntwo changed\nthree\nfour\n")
	d := UnifiedDiff("x.go", a, b)
	for _, want := range []string{"--- x.go", "-two", "+two changed", "@@ -1,4 +1,4 @@"} {
		if !strings.Contains(d, want) {
			t.Errorf("diff missing %q:\n%s", want, d)
		}
	}
	if UnifiedDiff("x.go", a, a) != "" {
		t.Error("identical contents produced a non-empty diff")
	}
}

// TestFixIdempotence is the acceptance gate for -fix: applying the
// errdrop fixes to a copy of the testdata, writing them out, and running
// the analyzer again over the FIXED (re-type-checked) sources must apply
// nothing — the explicit "_ =" discards the first pass introduced are
// diagnosed but carry no fix, so a second -fix is a no-op.
func TestFixIdempotence(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "errdrop", "errdrop.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixtest\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "errdrop.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}

	apply := func() int {
		loader, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CheckPackage(ErrDrop, pkg)
		if err != nil {
			t.Fatal(err)
		}
		fixed, applied, err := ApplyFixes(res.Diagnostics, pkg.Src)
		if err != nil {
			t.Fatal(err)
		}
		for file, content := range fixed {
			if err := os.WriteFile(file, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return applied
	}

	if first := apply(); first == 0 {
		t.Fatal("first application fixed nothing; the fixture should carry fixable findings")
	}
	if second := apply(); second != 0 {
		t.Errorf("second application applied %d fixes; -fix must be idempotent", second)
	}
}
