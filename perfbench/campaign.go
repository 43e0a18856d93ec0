package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"pef/internal/fsync"
	"pef/internal/robot"
	"pef/internal/scenario"
	"pef/internal/telemetry"
)

const (
	// campaignSeeds generator seeds of sizes.campaignCount scenarios
	// each make the 4000-scenario campaign per generator that the
	// ROADMAP's baselines quote.
	campaignSeeds = 4
	// campaignWarm is the size of the warm-up campaign setup runs.
	campaignWarm = 256
	// laneBlock is CampaignConfig's default lane width: the campaign
	// dispatches one pool job per laneBlock consecutive specs, and the
	// engine probe re-blocks the stream the same way.
	laneBlock = 1024
	// laneWord is the number of lanes one lockstep engine word carries.
	laneWord = 64
)

// warmSeed seeds every warm-up run. It is fixed rather than derived from
// the workload seed, so setup does the same work for every seed.
const warmSeed = 0x5E7C0DE

// mix derives the i-th input seed from the workload seed (splitmix64).
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// campaignInst streams one generated campaign per pass.
type campaignInst struct {
	reg *scenario.Registry
	cfg scenario.CampaignConfig
	// digest is the report digest of the first pass; finish checks it
	// against a scalar-engine reference run.
	digest string
}

func campaignSetup(generator string) func(uint64) (instance, error) {
	return func(seed uint64) (instance, error) {
		return newCampaign(generator, seed, sizes.campaignCount)
	}
}

// newCampaign builds a fresh registry and the campaign config, then runs
// a small warm-up campaign.
func newCampaign(generator string, seed uint64, count int) (*campaignInst, error) {
	reg := scenario.NewRegistry()
	seeds := make([]uint64, campaignSeeds)
	for i := range seeds {
		seeds[i] = mix(seed, uint64(i))
	}
	c := &campaignInst{reg: reg, cfg: scenario.CampaignConfig{
		Registry: reg, Generator: generator, Count: count, Seeds: seeds,
	}}
	warm := c.cfg
	warm.Count, warm.Seeds = campaignWarm, []uint64{warmSeed}
	for _, err := range scenario.StreamCampaign(context.Background(), warm) {
		if err != nil {
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
	}
	return c, nil
}

// finish re-runs the campaign with every scenario on the scalar oracle
// and no cache: the reports must be byte-identical to the passes'.
func (c *campaignInst) finish() error {
	if c.digest == "" {
		return nil
	}
	ref := c.cfg
	ref.DisableLockstep, ref.Cache = true, nil
	agg, err := streamAggregate(context.Background(), ref, func() {})
	if err != nil {
		return fmt.Errorf("scalar reference campaign: %w", err)
	}
	digest, err := campaignDigest(agg, &passResult{})
	if err != nil {
		return fmt.Errorf("scalar reference campaign: %w", err)
	}
	if digest != c.digest {
		return fmt.Errorf("campaign report digest %s differs from the scalar reference's %s", c.digest, digest)
	}
	return nil
}

// streamAggregate streams cfg's campaign into a fresh aggregate, calling
// each before every fold.
func streamAggregate(ctx context.Context, cfg scenario.CampaignConfig, each func()) (*scenario.Aggregate, error) {
	agg, err := scenario.NewAggregate(cfg)
	if err != nil {
		return nil, err
	}
	for v, err := range scenario.StreamCampaign(ctx, cfg) {
		if err != nil {
			return nil, err
		}
		each()
		agg.Add(v)
	}
	return agg, nil
}

func (c *campaignInst) pass(ctx context.Context, tr *tracer) (pr passResult, err error) {
	defer func() {
		if c.digest == "" {
			c.digest = pr.digest
		}
	}()
	if tr != nil {
		return c.tracedPass(ctx, tr)
	}
	start := time.Now()
	agg, err := streamAggregate(ctx, c.cfg, func() {
		if pr.first == 0 {
			pr.first = time.Since(start)
		}
	})
	if err != nil {
		return pr, err
	}
	pr.digest, err = campaignDigest(agg, &pr)
	pr.wall = time.Since(start)
	pr.lat = []time.Duration{pr.wall}
	return pr, err
}

// campaignDigest renders both campaign reports, hashes them, and checks
// the aggregate: no verdict may violate its predicate; error verdicts
// count as failed operations.
func campaignDigest(agg *scenario.Aggregate, pr *passResult) (string, error) {
	h := sha256.New()
	if err := agg.WriteJSON(h); err != nil {
		return "", err
	}
	if err := agg.WriteReport(h); err != nil {
		return "", err
	}
	pr.ops = agg.Done()
	violations := 0
	for _, v := range agg.Violations() {
		if v.Err != "" {
			pr.failed++
		} else {
			violations++
		}
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if violations > 0 {
		return digest, fmt.Errorf("%d verdicts violate their predicate (first: %s)", violations, agg.Violations()[0].ID)
	}
	return digest, nil
}

// tracedPass runs the campaign with the program's telemetry attached,
// then folds, renders and re-runs the same stream layer by layer on one
// goroutine, with a span around every layer call.
func (c *campaignInst) tracedPass(ctx context.Context, tr *tracer) (passResult, error) {
	root := tr.begin("campaign.pass", 0)
	defer tr.end(root)
	tel := scenario.NewTelemetry()
	cfg := c.cfg
	cfg.Telemetry = tel

	var pr passResult
	start := time.Now()
	var verdicts []scenario.Verdict
	pool := tr.begin("harness.pool", root)
	for v, err := range scenario.StreamCampaign(ctx, cfg) {
		if err != nil {
			return pr, err
		}
		if pr.first == 0 {
			pr.first = time.Since(start)
		}
		verdicts = append(verdicts, v)
	}
	tr.end(pool)
	poolWall := time.Since(start)

	sp := tr.begin("scenario.aggregate", root)
	agg, err := scenario.NewAggregate(c.cfg)
	if err != nil {
		return pr, err
	}
	for _, v := range verdicts {
		agg.Add(v)
	}
	tr.end(sp)
	sp = tr.begin("scenario.render", root)
	pr.digest, err = campaignDigest(agg, &pr)
	tr.end(sp)
	pr.wall = time.Since(start)
	pr.lat = []time.Duration{pr.wall}
	if err != nil {
		return pr, err
	}

	var specs []scenario.Spec
	sp = tr.begin("scenario.generate", root)
	for _, s := range cfg.Seeds {
		more, err := c.reg.Generate(cfg.Generator, cfg.Gen, s, cfg.Count)
		if err != nil {
			return pr, err
		}
		specs = append(specs, more...)
	}
	tr.end(sp)
	scalarTel, laneTel, err := engineProbe(ctx, tr, root, c.reg, specs, verdicts)
	if err != nil {
		return pr, err
	}

	self := tr.selfTimes()
	engine := self["scenario.engine"] + self["fsync.scalar"] + self["fsync.lane"]
	pr.layer = snapshotLayers(tel.Snapshot())
	pr.layer["scenario.generate_s"] = self["scenario.generate"].Seconds()
	pr.layer["scenario.engine_s"] = engine.Seconds()
	pr.layer["scenario.aggregate_s"] = self["scenario.aggregate"].Seconds()
	pr.layer["scenario.render_s"] = self["scenario.render"].Seconds()
	pr.layer["fsync.scalar_ns_per_round"] = perUnit(self["fsync.scalar"], scalarTel.Counters["sim.rounds"])
	pr.layer["fsync.lane_ns_per_lane_round"] = perUnit(self["fsync.lane"], laneTel.Counters["sim.lockstep.laneRounds"])
	pr.layer["harness.pool_busy_share"] = engine.Seconds() / (poolWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	return pr, nil
}

func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// laneRouted predicts, from the registry's public descriptors, whether
// the campaign engine runs a spec on the lockstep lanes: rings that fit
// one presence word, an algorithm with a bit-parallel core, and dynamics
// that build to an oblivious evolving graph.
func laneRouted(reg *scenario.Registry, s scenario.Spec) bool {
	if s.Ring > laneWord {
		return false
	}
	alg, err := reg.Algorithm(s.Algorithm)
	if err != nil {
		return false
	}
	if _, ok := alg.(robot.LaneAlgorithm); !ok {
		return false
	}
	fam, ok := reg.Family(s.Family)
	switch {
	case !ok:
		return false
	case fam.Build != nil:
		dyn, err := fam.Build(s)
		obl, ok := dyn.(fsync.Oblivious)
		return err == nil && ok && obl.G != nil
	default:
		_, err := fam.Graph(s)
		return err == nil
	}
}

// engineProbe re-runs specs through scenario.RunBlock on this goroutine,
// in the campaign's blocks, with each block split into its scalar and
// lane parts so each engine is timed on its own. The verdicts must equal
// the campaign's. It returns the telemetry of the two engines.
func engineProbe(ctx context.Context, tr *tracer, parent int, reg *scenario.Registry, specs []scenario.Spec, want []scenario.Verdict) (scalar, lane telemetry.Snapshot, err error) {
	if len(specs) != len(want) {
		return scalar, lane, fmt.Errorf("generate returned %d specs, the campaign streamed %d verdicts", len(specs), len(want))
	}
	scalarTel, laneTel := scenario.NewTelemetry(), scenario.NewTelemetry()
	for lo := 0; lo < len(specs); lo += laneBlock {
		hi := min(lo+laneBlock, len(specs))
		var parts [2][]scenario.Spec
		var at [2][]int
		for i := lo; i < hi; i++ {
			p := 0
			if laneRouted(reg, specs[i]) {
				p = 1
			}
			parts[p] = append(parts[p], specs[i])
			at[p] = append(at[p], i)
		}
		block := tr.begin("scenario.engine", parent)
		for p, name := range []string{"fsync.scalar", "fsync.lane"} {
			if len(parts[p]) == 0 {
				continue
			}
			tel := scalarTel
			if p == 1 {
				tel = laneTel
			}
			sp := tr.begin(name, block)
			got := scenario.RunBlock(ctx, parts[p], scenario.RunOptions{Registry: reg, Telemetry: tel})
			tr.end(sp)
			for j, v := range got {
				if !reflect.DeepEqual(v, want[at[p][j]]) {
					return scalar, lane, fmt.Errorf("engine probe verdict for %s differs from the campaign's", v.ID)
				}
			}
		}
		tr.end(block)
	}
	scalar, lane = scalarTel.Snapshot(), laneTel.Snapshot()
	if n := scalar.Counters["engine.lockstepSpecs"] + lane.Counters["engine.scalarSpecs"]; n > 0 {
		fmt.Printf("note: %d specs ran on another engine than predicted; per-round times mix the two\n", n)
	}
	return scalar, lane, nil
}
