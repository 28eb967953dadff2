package main

import (
	"bytes"
	"io"
	"testing"
)

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
