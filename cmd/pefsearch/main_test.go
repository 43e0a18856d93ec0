package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pef/internal/search"
	"pef/internal/telemetry"
)

// smokeArgs is a small fixed-seed search: 4 generations of 64 specs.
var smokeArgs = []string{"-seed", "3", "-generations", "4", "-generation-size", "64"}

// runSearch runs the CLI and returns its stdout. A run that finds
// violations exits non-zero by design; the error text is returned so
// callers can require it to be the same across engine shapes.
func runSearch(t *testing.T, extra ...string) (string, string) {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), append(append([]string{}, smokeArgs...), extra...), &out, io.Discard)
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return out.String(), msg
}

// TestSearchJSONByteIdenticalAcrossEngineShapes pins the CLI-level
// determinism guarantee: the boundary-report document does not depend on
// the worker count or the engine path.
func TestSearchJSONByteIdenticalAcrossEngineShapes(t *testing.T) {
	want, wantErr := runSearch(t, "-json", "-workers", "1")
	if want == "" {
		t.Fatalf("empty JSON document (error %q)", wantErr)
	}
	for _, shape := range [][]string{
		{"-workers", "4"},
		{"-workers", "2"},
		{"-lockstep=false"},
	} {
		got, gotErr := runSearch(t, append([]string{"-json"}, shape...)...)
		if got != want {
			t.Errorf("%v: JSON document differs from -workers 1", shape)
		}
		if gotErr != wantErr {
			t.Errorf("%v: exit error %q, want %q", shape, gotErr, wantErr)
		}
	}
}

// TestSearchGenerationFillsWorkers pins the dispatch granularity: a
// generation is split into many pool jobs (lane groups and scalar
// specs), so two workers are busy at once rather than one job per
// generation. It checks dispatch, not core count.
func TestSearchGenerationFillsWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	runSearch(t, "-workers", "2", "-metrics", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	gens := snap.Counters["search.generations"]
	if gens != 4 {
		t.Fatalf("search.generations = %d, want 4", gens)
	}
	if got := snap.Counters["pool.dispatched"]; got <= gens {
		t.Errorf("pool.dispatched = %d, want more than one job per generation (%d)", got, gens)
	}
	if high := snap.Gauges["pool.inFlight"].High; high < 2 {
		t.Errorf("pool.inFlight high-water = %d with -workers 2, want 2", high)
	}
}

// TestRotatingCheckpointKeepsLastTwo checks the rotation: every
// generation rewrites P.1 and moves the previous one to P.2, and both
// decode to consecutive generations.
func TestRotatingCheckpointKeepsLastTwo(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "search.ck")
	runSearch(t, "-checkpoint", ck, "-checkpoint-every", "1")
	for suffix, want := range map[string]int{".1": 4, ".2": 3} {
		data, err := os.ReadFile(ck + suffix)
		if err != nil {
			t.Fatal(err)
		}
		c, err := search.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s%s: %v", ck, suffix, err)
		}
		if c.Done != want {
			t.Errorf("%s%s holds generation %d, want %d", ck, suffix, c.Done, want)
		}
	}
	if _, err := os.Stat(ck + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary checkpoint left behind: %v", err)
	}
}
