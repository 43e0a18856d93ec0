package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"pef/internal/scenario"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeSizes shrinks every workload so the whole benchmark runs in
// seconds.
func smokeSizes(t *testing.T) {
	saved := sizes
	sizes.campaignCount = 64
	sizes.searchGenerations = 2
	sizes.searchGenSize = 64
	sizes.sweepSeeds = 1
	sizes.serveSpecs = 32
	t.Cleanup(func() { sizes = saved })
}

// TestEveryMetricPrints runs every workload of BENCHMARK.json at smoke
// size, untraced and traced, and checks that each run passes its output
// checks and prints every declared metric with its declared unit.
func TestEveryMetricPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	smokeSizes(t)
	for _, bw := range bf.Workloads {
		w, ok := findWorkload(bw.Name)
		if !ok {
			t.Fatalf("workload %q of BENCHMARK.json is unknown", bw.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), w, runOptions{seed: 1, seconds: 1, traced: traced}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// corruptCache is a verdict cache that hands back one wrong verdict: the
// spec with ID target gets its cover time shifted by one.
type corruptCache struct {
	reg    *scenario.Registry
	target string
	hits   atomic.Int64
}

func (c *corruptCache) Lookup(s scenario.Spec) (scenario.Verdict, bool) {
	if s.ID() != c.target {
		return scenario.Verdict{}, false
	}
	v, err := scenario.RunWith(context.Background(), s, scenario.RunOptions{Registry: c.reg})
	if err != nil {
		return scenario.Verdict{}, false
	}
	v.CoverTime++
	c.hits.Add(1)
	return v, true
}

func (c *corruptCache) Store(scenario.Spec, scenario.Verdict) {}

// TestCorruptVerdictFailsCheck plants one wrong verdict in every pass of
// a campaign and expects the output check to fail.
func TestCorruptVerdictFailsCheck(t *testing.T) {
	smokeSizes(t)
	var shim *corruptCache
	w := workload{name: "campaign-corrupt", setup: func(seed uint64) (instance, error) {
		c, err := newCampaign("uniform", seed, sizes.campaignCount)
		if err != nil {
			return nil, err
		}
		specs, err := c.reg.Generate(c.cfg.Generator, c.cfg.Gen, c.cfg.Seeds[0], 8)
		if err != nil {
			return nil, err
		}
		shim = &corruptCache{reg: c.reg, target: specs[7].ID()}
		c.cfg.Cache = shim
		return c, nil
	}}
	res, err := run(context.Background(), w, runOptions{seed: 1, seconds: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if shim.hits.Load() == 0 {
		t.Fatal("the shim cache never served its corrupted verdict")
	}
	if res.Correct {
		t.Fatal("a corrupted verdict passed the output check")
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	tr := newTracer("t", 1)
	tr.nextRun()
	tr.spans = []span{
		{ID: 1, Run: tr.run, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Run: tr.run, Name: "child", Start: 2, End: 4},
		{ID: 3, Parent: 1, Run: tr.run, Name: "child", Start: 3, End: 6},
		{ID: 4, Parent: 1, Run: tr.run, Name: "child", Start: 8, End: 12},
	}
	self := tr.selfTimes()
	if self["parent"] != 4 || self["child"] != 2+3+4 {
		t.Fatalf("self times %v, want parent 4 and child 9", self)
	}
}
