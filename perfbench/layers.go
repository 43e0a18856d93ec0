package main

import "pef/internal/telemetry"

// sizes are the per-pass input sizes. Each pass of a workload runs the
// same inputs, so a pass is one sample of a fixed amount of work; the
// smoke test shrinks them.
var sizes = struct {
	campaignCount     int // scenarios per generator seed (4 seeds)
	searchGenerations int
	searchGenSize     int
	sweepSeeds        int
	serveSpecs        int // distinct specs; each is requested serveSends times
}{
	campaignCount:     1000,
	searchGenerations: 16,
	searchGenSize:     256,
	sweepSeeds:        4,
	serveSpecs:        1024,
}

// snapshotLayers reads the per-layer counts out of a telemetry snapshot
// the program filled.
func snapshotLayers(s telemetry.Snapshot) map[string]float64 {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	m := map[string]float64{
		"scenario.lockstep_specs":      c("engine.lockstepSpecs"),
		"scenario.scalar_specs":        c("engine.scalarSpecs"),
		"scenario.skip.dynamics":       c("engine.skip.dynamics"),
		"scenario.skip.algorithm":      c("engine.skip.algorithm"),
		"scenario.lane_occupancy_mean": s.Hists["engine.laneOccupancy"].Mean,
		"fsync.scalar_rounds":          c("sim.rounds"),
		"fsync.lane_rounds":            c("sim.lockstep.laneRounds"),
		"harness.pool_jobs":            c("pool.dispatched"),
		"harness.pool_inflight_peak":   float64(s.Gauges["pool.inFlight"].High),
	}
	if fast, fallback := c("sim.wordFastLanes"), c("sim.wordFallbackLanes"); fast+fallback > 0 {
		m["dyngraph.fallback_lane_share"] = fallback / (fast + fallback)
	}
	return m
}
