package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMirrorGolden pins the Figure 1 pipeline end to end at fixed flags:
// the stall, the gadget's placements, Claims 1–4 and the rendered mirror
// execution must match the committed stdout byte for byte.
func TestMirrorGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"keep-direction.golden", nil},
		{"pef3plus-viz5.golden", []string{"-alg", "pef3+", "-viz", "5"}},
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

// TestMirrorRejects: a victim the adversary confines by cycling never
// stalls, so there is no gadget to build; unknown names and stray
// arguments are refused too.
func TestMirrorRejects(t *testing.T) {
	err := run([]string{"-alg", "bounce-on-missing"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "never stalled") {
		t.Errorf("cycling victim: err = %v", err)
	}
	for _, args := range [][]string{{"-alg", "nope"}, {"extra"}, {"-viz", "x"}} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
