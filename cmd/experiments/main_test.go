package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestGolden holds every runner's printed tables to testdata/tiny.golden,
// the stdout of
//
//	go run ./cmd/experiments -scale 0.05 -days 6 -comment-users 300 > cmd/experiments/testdata/tiny.golden
//
// A seed names a result: a change that moves one random draw, or one number
// a table prints, fails here naming the runner and table it moved.
// Regenerating the file is that same command (DESIGN.md §11).
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-days", "6", "-comment-users", "300"}, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if where := firstDifference(got.String(), string(want)); where != "" {
		t.Fatalf("stdout differs from testdata/tiny.golden: %s", where)
	}
}

// TestDBRefusesSimulationFlags: -scale, -days and -comment-users describe
// simulated stores, so beside -db each is refused before anything runs.
func TestDBRefusesSimulationFlags(t *testing.T) {
	for _, flag := range []string{"-scale", "-days", "-comment-users"} {
		var stdout bytes.Buffer
		err := run([]string{"-db", "crawl.jsonl", flag, "300", "T1"}, &stdout, io.Discard)
		want := "experiments: " + flag + " describes simulated stores; -db reads a crawl"
		if err == nil || err.Error() != want || stdout.Len() != 0 {
			t.Errorf("%s beside -db: error %v, printed %q; want %q", flag, err, stdout.String(), want)
		}
	}
}

// firstDifference names where got first departs from want — the runner's
// "===== ID =====" block, the table's title (the first line after the block
// header or a blank line) and both lines — or returns "" when they agree.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	block, title := "(none)", ""
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("runner %s, table %q, line %d: got %q, want %q", block, title, i+1, gl, wl)
		}
		switch {
		case strings.HasPrefix(wl, "===== "):
			block, title = strings.Trim(wl, "= "), ""
		case wl == "":
			title = ""
		case title == "":
			title = wl
		}
	}
	return ""
}

// tiny is the smallest configuration NewSuite accepts that still has T1
// print per-store rows; every case below starts from it.
var tiny = []string{"-scale", "0.05", "-days", "5", "-comment-users", "200"}

// TestAFlagValueOfZeroIsAValue: every flag reaches experiments.NewSuite as
// given — 0 is never read as "unset" — so -seed 0 is its own seed and a
// value NewSuite refuses exits before anything is printed.
func TestAFlagValueOfZeroIsAValue(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-scale", "0", "experiments: Scale = 0"},
		{"-days", "0", "experiments: Days = 0"},
		{"-days", "1", "experiments: Days = 1"},
		{"-comment-users", "0", "experiments: CommentUsers = 0, need >= 100"},
		{"-workers", "-2", "experiments: Workers = -2, need >= 0"},
	} {
		var stdout bytes.Buffer
		err := run(append(append([]string{}, tiny...), tc.flag, tc.value, "T1"), &stdout, io.Discard)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s %s: error %v, want %q", tc.flag, tc.value, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: printed %q before refusing", tc.flag, tc.value, stdout.String())
		}
	}

	table := func(args ...string) string {
		t.Helper()
		var stdout bytes.Buffer
		if err := run(append(append([]string{}, tiny...), args...), &stdout, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return stdout.String()
	}
	seed0, seed1 := table("-seed", "0", "T1"), table("-seed", "1", "T1")
	if seed0 == seed1 {
		t.Error("-seed 0 printed seed 1's table")
	}
	if seed1 != table("T1") {
		t.Error("-seed 1 is not the default")
	}
	if got := table("-workers", "0", "T1"); got != seed1 {
		t.Error("-workers 0 (GOMAXPROCS) changed the table")
	}
}
