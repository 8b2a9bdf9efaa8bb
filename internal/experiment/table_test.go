package experiment

import (
	"strings"
	"testing"
)

func TestTableAddRowPanicsOnArity(t *testing.T) {
	tab := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity did not panic")
		}
	}()
	tab.AddRow("only one")
}

func TestTableAddf(t *testing.T) {
	tab := NewTable("t", "a", "b", "c")
	tab.Addf("x", 42, 3.14159)
	if tab.Rows[0][0] != "x" || tab.Rows[0][1] != "42" {
		t.Fatalf("row = %v", tab.Rows[0])
	}
	if tab.Rows[0][2] != "3.142" {
		t.Fatalf("float cell = %q", tab.Rows[0][2])
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "col1", "col2")
	tab.Note = "a note"
	tab.Addf("v", 1)
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "a note", "col1", "col2", "v"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if tab.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.Addf(1, 2)
	tab.Addf("x,y", "z")
	var b strings.Builder
	if err := tab.CSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != `"x,y",z` {
		t.Fatalf("quoted cell = %q", lines[2])
	}
}

func TestOptionsTrials(t *testing.T) {
	if (Options{}).trials(7) != 7 {
		t.Fatal("default trials")
	}
	if (Options{Trials: 3}).trials(7) != 3 {
		t.Fatal("override trials")
	}
}
