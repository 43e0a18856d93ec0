package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pef/internal/metrics"
)

// TestNilSafety pins the package's core contract: every instrument
// method and every Registry accessor is a no-op (or zero) on a nil
// receiver. "Telemetry off" is nil pointers all the way down.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 || g.High() != 0 {
		t.Fatalf("nil gauge = %d/%d", g.Value(), g.High())
	}
	var h *Hist
	h.Observe(7)
	h.ObserveN(7, 3)
	if h.Count() != 0 {
		t.Fatalf("nil hist count = %d", h.Count())
	}
	if got := h.Value(); got.Count != 0 || got.Cells != nil {
		t.Fatalf("nil hist value = %+v", got)
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Hist("x") != nil {
		t.Fatal("nil registry handed out a non-nil instrument")
	}
	if snap := r.Snapshot(); snap.Counters != nil || snap.Gauges != nil || snap.Hists != nil {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}
	var tr *Tracer
	tr.Emit("event", nil)
	if tr.Err() != nil {
		t.Fatal("nil tracer reported an error")
	}
	var s *Server
	if err := s.Close(); err != nil {
		t.Fatalf("nil server close: %v", err)
	}
}

func TestCounterGaugeHist(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("jobs") != c {
		t.Fatal("accessor did not return the same counter")
	}
	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 || g.High() != 5 {
		t.Fatalf("gauge = %d high %d, want 1 high 5", g.Value(), g.High())
	}
	g.Set(2)
	if g.Value() != 2 || g.High() != 5 {
		t.Fatalf("after Set: gauge = %d high %d, want 2 high 5", g.Value(), g.High())
	}
	h := r.Hist("lanes")
	h.Observe(64)
	h.ObserveN(64, 2)
	h.Observe(8)
	v := h.Value()
	if v.Count != 4 || v.Min != 8 || v.Max != 64 {
		t.Fatalf("hist = %+v", v)
	}
	if len(v.Cells) != 2 || v.Cells[0] != (metrics.DistEntry{Value: 8, Count: 1}) {
		t.Fatalf("hist cells = %+v", v.Cells)
	}
}

// TestSnapshotDeterministicJSON checks that two registries fed the same
// observations in different orders marshal to identical bytes.
func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func(order []string) []byte {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name).Inc()
		}
		r.Hist("h").Observe(3)
		r.Hist("h").Observe(1)
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON depends on creation order:\n%s\n%s", a, b)
	}
}

// TestSnapshotMergeCommutative pins the order-independent merge: any
// merge order of shard snapshots yields the same result, including exact
// recomputed histogram quantiles.
func TestSnapshotMergeCommutative(t *testing.T) {
	mk := func(vals ...int) Snapshot {
		r := NewRegistry()
		for _, v := range vals {
			r.Counter("n").Inc()
			r.Hist("d").Observe(v)
			r.Gauge("g").Set(int64(v))
		}
		return r.Snapshot()
	}
	parts := []Snapshot{mk(1, 5), mk(2), mk(9, 9, 3)}
	var ab, ba Snapshot
	for _, p := range parts {
		ab.Merge(p)
	}
	for i := len(parts) - 1; i >= 0; i-- {
		ba.Merge(parts[i])
	}
	if !reflect.DeepEqual(ab.Counters, ba.Counters) || !reflect.DeepEqual(ab.Hists, ba.Hists) {
		t.Fatalf("merge not commutative:\n%+v\n%+v", ab, ba)
	}
	h := ab.Hists["d"]
	if h.Count != 6 || h.Min != 1 || h.Max != 9 {
		t.Fatalf("merged hist = %+v", h)
	}
	// Exact-union check: quantiles of the merged snapshot must equal
	// those of a single registry observing everything.
	whole := mk(1, 5, 2, 9, 9, 3).Hists["d"]
	if h.Median != whole.Median || h.P95 != whole.P95 || h.Mean != whole.Mean {
		t.Fatalf("merged summary %+v != whole %+v", h, whole)
	}
	if ab.Gauges["g"].High != 9 {
		t.Fatalf("merged gauge high = %d, want 9", ab.Gauges["g"].High)
	}
}

// TestConcurrentRecording exercises the atomic hot path from many
// goroutines; run under -race this doubles as the data-race check.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("events")
			g := r.Gauge("level")
			h := r.Hist("obs")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(w)
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("events").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Hist("obs").Count(); got != workers*per {
		t.Fatalf("hist count = %d, want %d", got, workers*per)
	}
	if g := r.Gauge("level"); g.Value() != 0 || g.High() < 1 || g.High() > workers {
		t.Fatalf("gauge = %d high %d", g.Value(), g.High())
	}
}

// TestTracerDeterministic pins the JSONL format: monotonic seq from 0,
// sorted field keys, no timestamps — two identical emission sequences
// produce identical bytes.
func TestTracerDeterministic(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		tr.Emit("campaign-start", map[string]any{"generator": "uniform", "count": 10})
		tr.Emit("block-retired", map[string]any{"block": 0, "specs": 5})
		tr.Emit("campaign-end", nil)
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := emit(), emit()
	if !bytes.Equal(a, b) {
		t.Fatalf("tracer output not deterministic:\n%s\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev.Seq != int64(i) {
			t.Fatalf("line %d has seq %d", i, ev.Seq)
		}
	}
	if !strings.HasPrefix(lines[0], `{"seq":0,"event":"campaign-start","fields":{"count":10,"generator":"uniform"}}`) {
		t.Fatalf("unexpected first line: %s", lines[0])
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.after--
	return len(p), nil
}

func TestTracerLatchesWriteError(t *testing.T) {
	tr := NewTracer(&failWriter{after: 1})
	tr.Emit("ok", nil)
	tr.Emit("fails", nil)
	tr.Emit("dropped", nil)
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "fails") {
		t.Fatalf("err = %v, want latched failure on %q", err, "fails")
	}
}
