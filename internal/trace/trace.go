// Package trace renders and serializes executions. Its space–time diagrams
// are the textual analogue of the paper's Figures 2 and 3: one line per
// instant showing which edges the adversary removed and where the robots
// stand.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"pef/internal/dyngraph"
	"pef/internal/fsync"
)

// SpaceTime renders instants [from, to) of an execution: the recorded
// evolving graph and the per-instant snapshots (as collected by an
// fsync.SnapshotRecorder).
//
// Each line looks like
//
//	t=  3  |  .  ~ [1]-- .  --[0]~  .  |
//
// where [i] is robot i (digits join for towers), "." an empty node, "--" a
// present edge and " ~" a missing one. The trailing edge closes the ring.
func SpaceTime(w io.Writer, g *dyngraph.Recorded, snaps []fsync.Snapshot, from, to int) error {
	n := g.Ring().Size()
	for t := from; t < to && t < len(snaps); t++ {
		if _, err := fmt.Fprintf(w, "t=%4d  |", t); err != nil {
			return err
		}
		edges := g.Snapshot(t)
		for node := 0; node < n; node++ {
			if _, err := io.WriteString(w, nodeCell(snaps[t], node)); err != nil {
				return err
			}
			if _, err := io.WriteString(w, edgeCell(edges.Contains(node))); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "|\n"); err != nil {
			return err
		}
	}
	return nil
}

// SpaceTimeString is SpaceTime into a string.
func SpaceTimeString(g *dyngraph.Recorded, snaps []fsync.Snapshot, from, to int) string {
	var b strings.Builder
	// strings.Builder never fails.
	_ = SpaceTime(&b, g, snaps, from, to)
	return b.String()
}

// nodeCell renders one node: robots standing on it, or a dot.
func nodeCell(snap fsync.Snapshot, node int) string {
	var ids []string
	for i, p := range snap.Positions {
		if p == node {
			ids = append(ids, fmt.Sprintf("%d", i))
		}
	}
	if len(ids) == 0 {
		return " . "
	}
	return "[" + strings.Join(ids, "") + "]"
}

// edgeCell renders one edge: present or missing.
func edgeCell(present bool) string {
	if present {
		return "--"
	}
	return " ~"
}

// Header renders the node indices line aligned with SpaceTime rows.
func Header(n int) string {
	var b strings.Builder
	b.WriteString("        |")
	for node := 0; node < n; node++ {
		fmt.Fprintf(&b, "%2d   ", node%100)
	}
	b.WriteString("|\n")
	return b.String()
}

// Diagram is an fsync.Observer that keeps the first rows rounds of an
// execution — each round's edge set E_t and the configuration at time t
// it ran from — and renders them as a space-time diagram. It is the one
// way a single run is turned into Figures 2/3-style output: attach it to
// the run, then print String.
type Diagram struct {
	rows  int
	graph *dyngraph.Recorded
	snaps []fsync.Snapshot
}

// NewDiagram returns a diagram observer for the first rows rounds; a
// non-positive rows renders nothing.
func NewDiagram(rows int) *Diagram { return &Diagram{rows: rows} }

// ObserveRound implements fsync.Observer. The event's edge set and
// snapshot are cloned, so the engine may reuse its buffers.
func (d *Diagram) ObserveRound(ev fsync.RoundEvent) {
	if len(d.snaps) >= d.rows {
		return
	}
	if d.graph == nil {
		d.graph = dyngraph.NewRecorded(ev.Edges.Size())
	}
	d.graph.Append(ev.Edges)
	d.snaps = append(d.snaps, ev.Before.Clone())
}

// String renders the node header and one line per recorded round; it is
// empty when no round was recorded.
func (d *Diagram) String() string {
	if len(d.snaps) == 0 {
		return ""
	}
	return Header(d.graph.Ring().Size()) + SpaceTimeString(d.graph, d.snaps, 0, len(d.snaps))
}

// Round is the JSON schema of one executed round.
type Round struct {
	T         int      `json:"t"`
	Edges     []int    `json:"edges"`
	Positions []int    `json:"positions"`
	Dirs      []string `json:"dirs"`
	States    []string `json:"states"`
	Moved     []bool   `json:"moved"`
	Flipped   []bool   `json:"flipped"`
}

// FromEvent converts a round event to its serializable form. This is the
// trace boundary where compact robot.StateCode values are rendered into
// their classic string encodings.
func FromEvent(ev fsync.RoundEvent) Round {
	dirs := make([]string, len(ev.After.GlobalDirs))
	for i, d := range ev.After.GlobalDirs {
		dirs[i] = d.String()
	}
	states := make([]string, len(ev.After.States))
	for i, s := range ev.After.States {
		states[i] = s.String()
	}
	return Round{
		T:         ev.T,
		Edges:     ev.Edges.Edges(),
		Positions: append([]int(nil), ev.After.Positions...),
		Dirs:      dirs,
		States:    states,
		Moved:     append([]bool(nil), ev.Moved...),
		Flipped:   append([]bool(nil), ev.Flipped...),
	}
}

// JSONLogger is an fsync.Observer writing one JSON object per round
// (JSON-lines format) to an io.Writer.
type JSONLogger struct {
	enc *json.Encoder
	err error
}

// NewJSONLogger builds a logger writing to w.
func NewJSONLogger(w io.Writer) *JSONLogger {
	return &JSONLogger{enc: json.NewEncoder(w)}
}

// ObserveRound implements fsync.Observer.
func (l *JSONLogger) ObserveRound(ev fsync.RoundEvent) {
	if l.err != nil {
		return
	}
	l.err = l.enc.Encode(FromEvent(ev))
}

// Err returns the first encoding error, if any.
func (l *JSONLogger) Err() error { return l.err }

// ReadRounds decodes a JSON-lines round log.
func ReadRounds(r io.Reader) ([]Round, error) {
	dec := json.NewDecoder(r)
	var out []Round
	for dec.More() {
		var rd Round
		if err := dec.Decode(&rd); err != nil {
			return out, fmt.Errorf("trace: decoding round %d: %w", len(out), err)
		}
		out = append(out, rd)
	}
	return out, nil
}
