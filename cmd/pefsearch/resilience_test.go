package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/search"
)

// TestFinalCheckpointIsAtomic covers the final checkpoint alone (no
// -checkpoint-every, so no rotation to fall back on): it must be a
// complete, decodable file written through a temp sibling that does not
// survive the write, and resuming it must reproduce the uninterrupted
// boundary report.
func TestFinalCheckpointIsAtomic(t *testing.T) {
	whole, wholeErr := runSearch(t, "-json")
	ckpt := filepath.Join(t.TempDir(), "final.json")
	if _, msg := runSearch(t, "-checkpoint", ckpt, "-halt-after", "2"); msg != "" {
		t.Fatalf("halted run: %s", msg)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := search.DecodeCheckpoint(data); err != nil || c.Done != 2 {
		t.Fatalf("final checkpoint: %v (done %v), want a decodable 2-generation prefix", err, c)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary checkpoint left behind: %v", err)
	}
	var resumed bytes.Buffer
	err = run(context.Background(), []string{"-resume", ckpt, "-json"}, &resumed, io.Discard)
	if resumed.String() != whole || errText(err) != wholeErr {
		t.Fatalf("resume from the final checkpoint diverged from the uninterrupted run (exit %v, want %q)", err, wholeErr)
	}
}

// TestResumeFallsBackToRotation corrupts the preferred checkpoint and
// requires -resume to recover from the rotation sibling with a loud
// stderr warning — and the recovered search to finish byte-identical to
// an uninterrupted run.
func TestResumeFallsBackToRotation(t *testing.T) {
	whole, wholeErr := runSearch(t, "-json")

	ckpt := filepath.Join(t.TempDir(), "s.json")
	// Rotating checkpoints every generation plus a halt at 3: s.json
	// holds the 3-generation prefix and s.json.1 the same generation.
	if _, msg := runSearch(t, "-checkpoint", ckpt, "-checkpoint-every", "1", "-halt-after", "3"); msg != "" {
		t.Fatalf("halted run: %s", msg)
	}
	if _, err := os.Stat(ckpt + ".1"); err != nil {
		t.Fatalf("rotation %s.1 missing: %v", ckpt, err)
	}

	// Truncate the preferred file mid-write, as a crash would.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	var errOut strings.Builder
	err = run(context.Background(), []string{"-resume", ckpt, "-json"}, &resumed, &errOut)
	if errText(err) != wholeErr {
		t.Fatalf("resume from corrupt checkpoint: %v, want exit %q", err, wholeErr)
	}
	if !strings.Contains(errOut.String(), "WARNING") || !strings.Contains(errOut.String(), ckpt+".1") {
		t.Fatalf("fallback was silent; stderr:\n%s", errOut.String())
	}
	if resumed.String() != whole {
		t.Fatal("resume via rotation fallback diverged from the uninterrupted run")
	}

	// With every candidate corrupt the failure is loud and total.
	for _, p := range []string{ckpt, ckpt + ".1", ckpt + ".2"} {
		if _, err := os.Stat(p); err == nil {
			if err := os.WriteFile(p, []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := run(context.Background(), []string{"-resume", ckpt}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no rotation could be recovered") {
		t.Fatalf("all-corrupt resume: %v, want unrecoverable error", err)
	}
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
