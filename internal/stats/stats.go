// Package stats provides the small result-table model used by the
// experiment runners: named columns, formatted cells, and text/CSV
// rendering that mirrors the paper's tables and figure series.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: a title, column headers, and
// rows of formatted cells.
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// New creates an empty table with the given title and columns.
func New(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// AddRow appends a row; values are formatted with %v, floats with 2
// decimals via Pct/F2 helpers at the call site.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(cells))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Pct formats a [0,1] rate as a percentage with two decimals ("6.23%").
func Pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

// F2 formats a float with two decimals.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }

// I formats an integer.
func I(x int) string { return fmt.Sprintf("%d", x) }

// WriteText renders the table as aligned monospace text.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	line := func(cells []string) {
		for i := range t.Cols {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Cols)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}
