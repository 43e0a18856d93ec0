package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestJourneyGolden pins the temporal analysis at fixed flags: the
// foremost-arrival matrix, temporal diameter, recurrence bound and
// taxonomy line must match the committed stdout byte for byte — for a
// recurrent random ring (the defaults), a periodic timetable, and a
// sparse ring whose horizon leaves pairs unreachable.
func TestJourneyGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"bernoulli.golden", nil},
		{"periodic-n6.golden", []string{"-dyn", "periodic", "-n", "6", "-horizon", "200"}},
		{"sparse-unreachable.golden", []string{"-dyn", "bernoulli", "-p", "0.05", "-horizon", "30", "-n", "6"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if out.String() != string(want) {
			t.Errorf("%v: stdout differs from %s:\n%s", c.args, c.golden, out.String())
		}
	}
}

func TestJourneyRejects(t *testing.T) {
	for _, args := range [][]string{{"-dyn", "nope"}, {"extra"}, {"-n", "x"}} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
