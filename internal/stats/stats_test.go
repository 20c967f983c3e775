package stats

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := New("Sample", "name", "rate", "count")
	t.Note = "a note"
	t.AddRow("alpha", Pct(0.0623), I(42))
	t.AddRow("beta, the second", F2(1.5), I(7))
	return t
}

func TestWriteText(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := b.String()
	for _, want := range []string{"## Sample", "a note", "6.23%", "42", "1.50", "name", "rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Column alignment: header and first row start the rate column at the
	// same offset.
	lines := strings.Split(out, "\n")
	var header, row string
	for i, l := range lines {
		if strings.HasPrefix(l, "name") {
			header, row = l, lines[i+2]
			break
		}
	}
	if strings.Index(header, "rate") != strings.Index(row, "6.23%") {
		t.Errorf("columns misaligned:\n%s\n%s", header, row)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.5) != "50.00%" || F2(2.345) != "2.35" || I(9) != "9" {
		t.Fatalf("formatter output wrong: %q %q %q", Pct(0.5), F2(2.345), I(9))
	}
}

func TestShortRowsRenderSafely(t *testing.T) {
	tbl := New("T", "a", "b", "c")
	tbl.AddRow("only")
	var b strings.Builder
	if err := tbl.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(b.String(), "only") {
		t.Fatalf("short row dropped")
	}
}
