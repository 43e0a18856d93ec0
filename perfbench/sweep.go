package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"pef/internal/harness"
	"pef/internal/telemetry"
)

// sweepInst runs the sharded experiment battery over a few seeds per
// pass: the Table 1 / Figures 1–3 reproduction.
type sweepInst struct {
	exps  []harness.Experiment // sharded index
	seeds []uint64
}

func sweepSetup(seed uint64) (instance, error) {
	s := &sweepInst{exps: harness.Sharded(harness.All(), false)}
	for i := 0; i < sizes.sweepSeeds; i++ {
		s.seeds = append(s.seeds, mix(seed, uint64(i)))
	}
	// Warm-up: the quick battery on a seed the passes never use.
	jobs, err := harness.RunBatch(context.Background(), harness.BatchConfig{
		Seeds: []uint64{warmSeed}, Quick: true, Shard: true,
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up battery: %w", err)
	}
	if p := harness.Passes(jobs); p != len(jobs) {
		return nil, fmt.Errorf("warm-up battery: %d of %d jobs failed", len(jobs)-p, len(jobs))
	}
	return s, nil
}

func (s *sweepInst) finish() error { return nil }

func (s *sweepInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var pr passResult
	var reg *telemetry.Registry
	root, batch := 0, 0
	if tr != nil {
		root = tr.begin("sweep.pass", 0)
		defer tr.end(root)
		reg = telemetry.NewRegistry()
		batch = tr.begin("harness.batch", root)
	}
	start := time.Now()
	jobs, err := harness.RunBatch(ctx, harness.BatchConfig{
		Experiments: s.exps,
		Seeds:       s.seeds,
		Metrics:     harness.NewPoolMetrics(reg, "pool"),
		OnResult: func(j harness.JobResult) {
			if pr.first == 0 {
				pr.first = time.Since(start)
			}
			pr.lat = append(pr.lat, j.Elapsed)
		},
	})
	pr.wall = time.Since(start)
	if tr != nil {
		tr.end(batch)
	}
	if err != nil {
		return pr, err
	}
	h := sha256.New()
	if err := harness.WriteBatchReport(h, jobs); err != nil {
		return pr, err
	}
	pr.digest = hex.EncodeToString(h.Sum(nil))
	pr.ops = len(jobs)
	pr.failed = len(jobs) - harness.Passes(jobs)
	if tr == nil {
		return pr, nil
	}

	// Job cost without the pool: every job once more, one at a time.
	var busy time.Duration
	var each []time.Duration
	for i, j := range jobs {
		e := s.exps[i/len(s.seeds)]
		sp := tr.begin("harness.job", root)
		t0 := time.Now()
		res, err := e.Run(harness.Config{Seed: j.Seed})
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return pr, fmt.Errorf("experiment %s seed %d: %w", e.ID, j.Seed, err)
		}
		if res.Pass != j.Result.Pass {
			return pr, fmt.Errorf("experiment %s seed %d: verdict differs between the pool and a lone run", e.ID, j.Seed)
		}
		busy += d
		each = append(each, d)
	}
	pr.layer = snapshotLayers(reg.Snapshot())
	pr.layer["harness.job_p50_ms"] = millis(percentile(each, 0.5))
	pr.layer["harness.job_max_ms"] = millis(percentile(each, 1))
	pr.layer["harness.pool_busy_share"] = busy.Seconds() / (pr.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	return pr, nil
}
