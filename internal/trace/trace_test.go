package trace

import (
	"bytes"
	"strings"
	"testing"

	"pef/internal/baseline"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/ring"
	"pef/internal/robot"
)

// runRecorded produces a recorded graph and snapshots from a tiny run.
func runRecorded(t *testing.T) (*dyngraph.Recorded, []fsync.Snapshot) {
	t.Helper()
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm: baseline.KeepDirection{},
		Dynamics:  fsync.Oblivious{G: dyngraph.NewEventualMissing(dyngraph.NewStatic(5), 2, 2)},
		Placements: []fsync.Placement{
			{Node: 0, Chirality: robot.RightIsCW},
			{Node: 3, Chirality: robot.RightIsCCW},
		},
		Observers:   []fsync.Observer{rec},
		RecordGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(6)
	snaps := make([]fsync.Snapshot, rec.Len())
	for i := range snaps {
		snaps[i] = rec.At(i)
	}
	return sim.RecordedGraph(), snaps
}

func TestSpaceTimeRendering(t *testing.T) {
	g, snaps := runRecorded(t)
	out := SpaceTimeString(g, snaps, 0, 4)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "t=   0") {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.Contains(lines[0], "[0]") || !strings.Contains(lines[0], "[1]") {
		t.Fatalf("robots not rendered: %q", lines[0])
	}
	// After t=2 edge 2 is missing: the missing-edge marker must appear.
	if !strings.Contains(lines[3], " ~") {
		t.Fatalf("missing edge not rendered: %q", lines[3])
	}
}

func TestSpaceTimeTowerRendering(t *testing.T) {
	// Craft a snapshot with both robots on node 1.
	snap := fsync.Snapshot{
		T:         0,
		Positions: []int{1, 1},
		GlobalDirs: []ring.Direction{
			ring.CW, ring.CCW,
		},
		States:    []robot.StateCode{{}, {}},
		MovedPrev: []bool{false, false},
	}
	g := dyngraph.NewRecorded(3)
	g.Append(ring.FullEdgeSet(3))
	out := SpaceTimeString(g, []fsync.Snapshot{snap}, 0, 1)
	if !strings.Contains(out, "[01]") {
		t.Fatalf("tower not rendered: %q", out)
	}
}

func TestHeaderAlignment(t *testing.T) {
	h := Header(5)
	if !strings.Contains(h, " 0") || !strings.Contains(h, " 4") {
		t.Fatalf("header %q", h)
	}
}

func TestSpaceTimeWriterError(t *testing.T) {
	g, snaps := runRecorded(t)
	w := &failingWriter{}
	if err := SpaceTime(w, g, snaps, 0, 3); err == nil {
		t.Fatal("writer error swallowed")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, bytes.ErrTooLarge
}

func TestJSONLoggerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	logger := NewJSONLogger(&buf)
	sim, err := fsync.New(fsync.Config{
		Algorithm:  baseline.BounceOnMissing{},
		Dynamics:   fsync.Oblivious{G: dyngraph.NewStatic(4)},
		Placements: []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}},
		Observers:  []fsync.Observer{logger},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(5)
	if logger.Err() != nil {
		t.Fatal(logger.Err())
	}
	rounds, err := ReadRounds(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 5 {
		t.Fatalf("decoded %d rounds", len(rounds))
	}
	for i, r := range rounds {
		if r.T != i {
			t.Fatalf("round %d has T=%d", i, r.T)
		}
		if len(r.Positions) != 1 || len(r.Edges) != 4 {
			t.Fatalf("round %d malformed: %+v", i, r)
		}
		if r.Dirs[0] != "CW" && r.Dirs[0] != "CCW" {
			t.Fatalf("round %d dir %q", i, r.Dirs[0])
		}
	}
}

func TestReadRoundsRejectsGarbage(t *testing.T) {
	if _, err := ReadRounds(strings.NewReader("{\"t\":0}\nnot-json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFromEventCopies(t *testing.T) {
	ev := fsync.RoundEvent{
		T:     3,
		Edges: ring.EdgeSetOf(4, 1, 2),
		After: fsync.Snapshot{
			Positions:  []int{2},
			GlobalDirs: []ring.Direction{ring.CW},
			States:     []robot.StateCode{robot.DirState(robot.Left)},
		},
		Moved:   []bool{true},
		Flipped: []bool{false},
	}
	r := FromEvent(ev)
	r.Positions[0] = 99
	if ev.After.Positions[0] != 2 {
		t.Fatal("FromEvent shares storage with the event")
	}
	if len(r.Edges) != 2 || r.Edges[0] != 1 {
		t.Fatalf("edges = %v", r.Edges)
	}
}

// TestDiagramMatchesRecordedRendering pins the observer against the
// record-then-render path it replaces: the same run, observed live,
// renders the same header and rows, truncated at the requested count.
func TestDiagramMatchesRecordedRendering(t *testing.T) {
	g, snaps := runRecorded(t)
	for _, rows := range []int{0, 1, 4, 6} {
		d := NewDiagram(rows)
		sim, err := fsync.New(fsync.Config{
			Algorithm: baseline.KeepDirection{},
			Dynamics:  fsync.Oblivious{G: dyngraph.NewEventualMissing(dyngraph.NewStatic(5), 2, 2)},
			Placements: []fsync.Placement{
				{Node: 0, Chirality: robot.RightIsCW},
				{Node: 3, Chirality: robot.RightIsCCW},
			},
			Observers: []fsync.Observer{d},
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(6)
		want := ""
		if rows > 0 {
			want = Header(5) + SpaceTimeString(g, snaps, 0, rows)
		}
		if got := d.String(); got != want {
			t.Fatalf("rows=%d: diagram observer renders\n%s\nwant\n%s", rows, got, want)
		}
	}
}
