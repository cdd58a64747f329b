package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string // e.g. "fig5", "table4"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records calibration/substitution caveats for EXPERIMENTS.md.
	Notes []string
}

// String renders an aligned plain-text table.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// fmtM renders an absolute count as millions with sensible precision.
func fmtM(v uint64) string {
	m := float64(v) / 1e6
	switch {
	case m >= 100:
		return fmt.Sprintf("%.0fM", m)
	case m >= 1:
		return fmt.Sprintf("%.1fM", m)
	case v == 0:
		return "0"
	default:
		return fmt.Sprintf("%d", v)
	}
}

// fmtB renders an absolute count as billions.
func fmtB(v float64) string {
	b := v / 1e9
	switch {
	case b >= 1000:
		return fmt.Sprintf("%.1fe3B", b/1000)
	case b >= 10:
		return fmt.Sprintf("%.1fB", b)
	default:
		return fmt.Sprintf("%.2fB", b)
	}
}

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
