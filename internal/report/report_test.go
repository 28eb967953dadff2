package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("bee", 42)
	s := tbl.String()
	if !strings.Contains(s, "Demo") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Fatalf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[3], "alpha") || !strings.Contains(lines[3], "1.500") {
		t.Fatalf("row = %q", lines[3])
	}
	if !strings.Contains(lines[4], "42") {
		t.Fatalf("row = %q", lines[4])
	}
}

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("longvaluehere", "x")
	tbl.AddRow("s", "y")
	lines := strings.Split(strings.TrimSpace(tbl.String()), "\n")
	// Column b should start at the same offset in both data rows.
	i1 := strings.Index(lines[2], "x")
	i2 := strings.Index(lines[3], "y")
	if i1 != i2 {
		t.Fatalf("misaligned columns:\n%s", tbl.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{5, "5"},
		{5.25, "5.250"},
		{0.002, "0.002"},
		{0.000321, "0.000321"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Fatalf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLogSpacedIndexes(t *testing.T) {
	idx := LogSpacedIndexes(1000, 10)
	if idx[0] != 0 {
		t.Fatalf("first index = %d", idx[0])
	}
	if idx[len(idx)-1] != 999 {
		t.Fatalf("last index = %d", idx[len(idx)-1])
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("indexes not strictly increasing: %v", idx)
		}
	}
	if got := LogSpacedIndexes(0, 5); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
	one := LogSpacedIndexes(1, 5)
	if len(one) != 1 || one[0] != 0 {
		t.Fatalf("n=1 returned %v", one)
	}
}
