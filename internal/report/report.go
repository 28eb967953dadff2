// Package report renders experiment results as fixed-width text tables and
// simple series dumps — the textual equivalent of the paper's tables and
// figure data, consumed by cmd/experiments and EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders floats compactly: integers without decimals, small
// magnitudes with enough precision to stay informative.
func FormatFloat(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v != 0 && (v < 0.01 && v > -0.01):
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// LogSpacedIndexes returns up to k indexes into [0, n) spaced roughly
// geometrically, always including 0 and n-1. Useful for sampling rank
// curves plotted on log axes.
func LogSpacedIndexes(n, k int) []int {
	if n <= 0 {
		return nil
	}
	if k < 2 {
		k = 2
	}
	seen := map[int]bool{}
	var out []int
	ratio := math.Pow(float64(n), 1/float64(k-1))
	x := 1.0
	for i := 0; i < k; i++ {
		idx := int(x) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
		x *= ratio
	}
	if !seen[n-1] {
		out = append(out, n-1)
	}
	return out
}
