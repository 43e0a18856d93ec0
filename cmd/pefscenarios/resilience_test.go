package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/scenario"
)

// TestResumeFallsBackToRotation corrupts the preferred checkpoint and
// requires -resume to recover from the rotation sibling with a loud
// stderr warning — and the recovered campaign to finish byte-identical
// to an uninterrupted run.
func TestResumeFallsBackToRotation(t *testing.T) {
	base := []string{"-family", "boundary", "-count", "40", "-maxring", "8"}
	var whole bytes.Buffer
	if err := run(context.Background(), base, &whole, io.Discard); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ckpt := filepath.Join(t.TempDir(), "c.json")
	// Rotating checkpoints every 10 plus a halt at 30: c.json holds the
	// 30-scenario prefix and c.json.1 the most recent rotation.
	halted := append([]string{"-checkpoint", ckpt, "-checkpoint-every", "10", "-halt-after", "30"}, base...)
	if err := run(context.Background(), halted, io.Discard, io.Discard); err != nil {
		t.Fatalf("halted run: %v", err)
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
	if err := run(context.Background(), []string{"-resume", ckpt}, &resumed, &errOut); err != nil {
		t.Fatalf("resume from corrupt checkpoint: %v", err)
	}
	if !strings.Contains(errOut.String(), "WARNING") || !strings.Contains(errOut.String(), ckpt+".1") {
		t.Fatalf("fallback was silent; stderr:\n%s", errOut.String())
	}
	if resumed.String() != whole.String() {
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

// TestResumeRejectsCorruptWithoutRotation pins the no-rotation case: a
// checksum-mismatched checkpoint with no siblings fails with the
// integrity error, never a silent restart.
func TestResumeRejectsCorruptWithoutRotation(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "solo.json")
	args := []string{"-family", "uniform", "-count", "20", "-maxring", "8", "-checkpoint", ckpt, "-halt-after", "10"}
	if err := run(context.Background(), args, io.Discard, io.Discard); err != nil {
		t.Fatalf("halted run: %v", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a content byte that stays valid JSON: only the checksum can
	// catch this.
	flipped := bytes.Replace(data, []byte(`"generator": "uniform"`), []byte(`"generator": "uniforn"`), 1)
	if bytes.Equal(flipped, data) {
		t.Fatal("corruption did not land; fixture drifted")
	}
	if err := os.WriteFile(ckpt, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-resume", ckpt}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bit-flipped resume: %v, want checksum mismatch", err)
	}
}

// TestInterruptedCampaignCheckpointsCleanPrefix drives run with an
// already-cancelled context — the moral equivalent of a SIGINT landing
// mid-campaign — and requires a resumable checkpoint plus a non-nil
// "interrupted" error; resuming must reproduce the uninterrupted bytes.
func TestInterruptedCampaignCheckpointsCleanPrefix(t *testing.T) {
	base := []string{"-family", "uniform", "-count", "30", "-maxring", "8"}
	var whole bytes.Buffer
	if err := run(context.Background(), base, &whole, io.Discard); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ckpt := filepath.Join(t.TempDir(), "int.json")
	err := run(ctx, append([]string{"-checkpoint", ckpt}, base...), io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "interrupted after") {
		t.Fatalf("interrupted run: %v, want interrupted error", err)
	}
	if !strings.Contains(err.Error(), "-resume "+ckpt) {
		t.Fatalf("interrupted error does not point at the checkpoint: %v", err)
	}
	var resumed bytes.Buffer
	if err := run(context.Background(), []string{"-resume", ckpt}, &resumed, io.Discard); err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	if resumed.String() != whole.String() {
		t.Fatal("interrupt + resume diverged from the uninterrupted run")
	}

	// Without -checkpoint the interruption is still loud, and honest
	// about the progress being discarded.
	err = run(ctx, base, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "progress discarded") {
		t.Fatalf("interrupted run without checkpoint: %v, want progress-discarded error", err)
	}
}

// TestWorkerFlagValidation pins the worker-mode flag surface: campaign-
// shaping flags conflict with -worker-coord, and the worker-only flags
// require it.
func TestWorkerFlagValidation(t *testing.T) {
	conflicts := [][]string{
		{"-worker-coord", "http://127.0.0.1:1", "-count", "10"},
		{"-worker-coord", "http://127.0.0.1:1", "-family", "boundary"},
		{"-worker-coord", "http://127.0.0.1:1", "-resume", "x.json"},
		{"-worker-coord", "http://127.0.0.1:1", "-json"},
	}
	for _, args := range conflicts {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil ||
			!strings.Contains(err.Error(), "conflicts with -worker-coord") {
			t.Errorf("run(%v): %v, want conflict error", args, err)
		}
	}
	if err := run(context.Background(), []string{"-chaos-seed", "7"}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "requires -worker-coord") {
		t.Errorf("-chaos-seed alone: %v, want requires error", err)
	}
	if err := run(context.Background(), []string{"-worker-id", "w"}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "requires -worker-coord") {
		t.Errorf("-worker-id alone: %v, want requires error", err)
	}
	// A worker pointed at nothing exhausts its retries and reports it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-worker-coord", "http://127.0.0.1:1"}, io.Discard, io.Discard); err == nil {
		t.Error("worker with cancelled context returned nil")
	}
}

// TestFinalCheckpointIsAtomic covers the final checkpoint alone (no
// -checkpoint-every, so no rotation to fall back on): it must be a
// complete, decodable file written through a temp sibling that does not
// survive the write, and resuming it must reproduce the uninterrupted
// report.
func TestFinalCheckpointIsAtomic(t *testing.T) {
	base := []string{"-family", "uniform", "-count", "30", "-maxring", "8"}
	var whole bytes.Buffer
	if err := run(context.Background(), base, &whole, io.Discard); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	ckpt := filepath.Join(t.TempDir(), "final.json")
	if err := run(context.Background(), append([]string{"-checkpoint", ckpt, "-halt-after", "17"}, base...), io.Discard, io.Discard); err != nil {
		t.Fatalf("halted run: %v", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := scenario.DecodeCheckpoint(data); err != nil || c.Done != 17 {
		t.Fatalf("final checkpoint: %v (done %v), want a decodable 17-scenario prefix", err, c)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary checkpoint left behind: %v", err)
	}
	var resumed bytes.Buffer
	if err := run(context.Background(), []string{"-resume", ckpt}, &resumed, io.Discard); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.String() != whole.String() {
		t.Fatal("resume from the final checkpoint diverged from the uninterrupted run")
	}
}
