package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"pef/internal/scenario"
	"pef/internal/search"
)

// searchSeed is the search's own seed, the same for every workload seed.
// A search's path, and with it its cost, depends on its seed so strongly
// (over seeds 11 to 15, samples per second differed by a factor 1.5 and
// the violations found ranged from 0 to 31) that a per-seed search would
// measure the seed rather than the program. At this seed the search finds
// one violation, which keeps ROADMAP item 1's horizon-claim class on the
// measured path.
const searchSeed = 3

// searchInst runs one fixed-seed steered search per pass.
type searchInst struct {
	cfg search.Config
}

func searchSetup(uint64) (instance, error) {
	reg := scenario.NewRegistry()
	warm := search.Config{Registry: reg, Seed: warmSeed, Generations: 1, GenerationSize: 64}
	if _, err := search.Run(context.Background(), warm); err != nil {
		return nil, fmt.Errorf("warm-up search: %w", err)
	}
	return &searchInst{cfg: search.Config{
		Registry:       reg,
		Seed:           searchSeed,
		Generations:    sizes.searchGenerations,
		GenerationSize: sizes.searchGenSize,
	}}, nil
}

func (s *searchInst) finish() error { return nil }

func (s *searchInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var pr passResult
	cfg := s.cfg
	var gens []time.Time
	cfg.OnGeneration = func(search.Progress) error {
		gens = append(gens, time.Now())
		return nil
	}
	var tel *scenario.Telemetry
	var prof bytes.Buffer
	root := 0
	if tr != nil {
		root = tr.begin("search.pass", 0)
		defer tr.end(root)
		tel = scenario.NewTelemetry()
		cfg.Telemetry = tel
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return pr, fmt.Errorf("starting cpu profile: %w", err)
		}
	}
	start := time.Now()
	res, err := search.Run(ctx, cfg)
	pr.wall = time.Since(start)
	if tr != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return pr, err
	}

	h := sha256.New()
	if err := res.WriteJSON(h); err != nil {
		return pr, err
	}
	if err := res.WriteReport(h); err != nil {
		return pr, err
	}
	pr.digest = hex.EncodeToString(h.Sum(nil))
	pr.ops = res.Samples
	for _, v := range res.Violations {
		if v.Err != "" {
			pr.failed++ // an execution error, not a predicate violation
		}
	}
	last := start
	for _, t := range gens {
		pr.lat = append(pr.lat, t.Sub(last))
		if tr != nil {
			tr.add("search.generation", root, last, t)
		}
		last = t
	}
	if len(gens) > 0 {
		pr.first = gens[0].Sub(start)
	}
	if tr == nil {
		return pr, nil
	}

	engine, steer, err := cpuShares(prof.Bytes())
	if err != nil {
		return pr, err
	}
	var genSecs []float64
	for _, d := range pr.lat {
		genSecs = append(genSecs, d.Seconds())
	}
	snap := tel.Snapshot()
	pr.layer = snapshotLayers(snap)
	pr.layer["search.generation_p50_s"] = median(genSecs)
	if engine+steer > 0 {
		pr.layer["search.engine_share"] = engine / (engine + steer)
	}
	pr.layer["search.steer_s"] = steer
	pr.layer["harness.pool_busy_share"] = engine / (pr.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	pr.layer["search.samples"] = float64(snap.Counters["search.samples"])
	pr.layer["search.violations"] = float64(snap.Counters["search.violations"])
	pr.layer["search.minimized"] = float64(snap.Counters["search.minimized"])
	return pr, nil
}
