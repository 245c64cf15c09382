package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// Table is a rendered experiment artifact: a paper table or the data series
// behind a figure.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// GetTable returns t itself: every result embeds its *Table, so the Registry
// renders any result through this one method.
func (t *Table) GetTable() *Table { return t }

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddSection appends a full-width section label row (the paper's tables stack
// ARE / MARE / time sections).
func (t *Table) AddSection(label string) {
	t.Rows = append(t.Rows, []string{"-- " + label + " --"})
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// pct formats a fraction as a percentage with adaptive precision.
func pct(x float64) string {
	switch {
	case x >= 0.1:
		return fmt.Sprintf("%.1f%%", x*100)
	case x >= 0.01:
		return fmt.Sprintf("%.2f%%", x*100)
	default:
		return fmt.Sprintf("%.3f%%", x*100)
	}
}

// secs formats a duration in seconds with adaptive precision.
func secs(s float64) string {
	if s >= 10 {
		return fmt.Sprintf("%.1fs", s)
	}
	if s >= 0.1 {
		return fmt.Sprintf("%.2fs", s)
	}
	return fmt.Sprintf("%.0fms", s*1000)
}
