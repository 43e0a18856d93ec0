package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecConfineTwoDiagramGolden pins -spec -viz against the Figure 2
// schedule: the confine-two spec (n=8, bounce-on-missing, h=400) must
// print its verdict and then the first 14 rounds, row for row as the
// committed golden (the diagram the Theorem 4.1 adversary run has always
// rendered).
func TestSpecConfineTwoDiagramGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "confine-two.viz14.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-spec", filepath.Join("testdata", "confine-two.json"), "-viz", "14"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	verdict, diagram, ok := strings.Cut(out.String(), "\n\n")
	if !ok {
		t.Fatalf("no diagram after the verdict:\n%s", out.String())
	}
	if diagram != string(want) {
		t.Fatalf("diagram rows differ from the golden:\n%s\nwant\n%s", diagram, want)
	}
	wantVerdict := `spec      v1/n8.k2/bounce-on-missing/adjacent/confine-two/h400/s0
expect    confine
outcome   confined
covered   3/8 nodes (cover time -1)
max gap   401 rounds
distinct  3 nodes
ok        true`
	if verdict != wantVerdict {
		t.Fatalf("verdict lines:\n%s\nwant\n%s", verdict, wantVerdict)
	}
}

// TestSpecReadsStdinAndFailsOnViolation: "-" reads the spec from stdin,
// output without -viz is the verdict alone, and a violated predicate is
// a non-nil error (a non-zero exit).
func TestSpecReadsStdinAndFailsOnViolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.json")
	broken := `{"version":1,"ring":5,"robots":3,"algorithm":"oscillator","placement":"adjacent","family":"static","params":{},"horizon":6,"seed":7,"expect":"explore"}`
	if err := os.WriteFile(path, []byte(broken+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdin := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = stdin }()

	var out bytes.Buffer
	err = run(context.Background(), []string{"-spec", "-"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "violates its predicate") {
		t.Fatalf("violating spec: err = %v", err)
	}
	if !strings.Contains(out.String(), "ok        false") || strings.Contains(out.String(), "\n\n") {
		t.Fatalf("verdict output:\n%s", out.String())
	}
}

// TestSpecRejectsCampaignFlags: a spec pins the whole run, so every
// campaign-shaping flag beside -spec is refused rather than ignored, and
// -viz means nothing without -spec.
func TestSpecRejectsCampaignFlags(t *testing.T) {
	spec := filepath.Join("testdata", "confine-two.json")
	for _, args := range [][]string{
		{"-spec", spec, "-count", "5"},
		{"-spec", spec, "-seed", "2"},
		{"-spec", spec, "-family", "boundary"},
		{"-spec", spec, "-json"},
		{"-spec", spec, "-list"},
		{"-spec", spec, "-workers", "2"},
		{"-spec", spec, "-checkpoint", "c.json"},
		{"-spec", spec, "-viz", "-1"},
		{"-spec", spec, "extra"},
		{"-viz", "3"},
		{"-spec", filepath.Join("testdata", "missing.json")},
	} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
