package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/robot"
	"pef/internal/spec"
)

// This file routes blocks of specs through the bit-parallel lockstep
// engine: up to 64 seeds of one scenario shape advance per machine word.
// Eligibility is conservative — anything the lane engine cannot represent
// (big rings, adaptive adversaries, imperative overrides, algorithms
// without a lane core) falls back to the scalar oracle — and every lane's
// verdict is byte-identical to the scalar RunWith verdict for the same
// spec, an invariant the differential tests in lockstep_test.go pin
// across all registered families and generators.

// laneWordSize is the lane capacity of one engine run: one seed per bit
// of a uint64.
const laneWordSize = 64

// laneEval bundles the per-block lane tracker a campaign worker reuses
// from block to block, mirroring the scalar visit-tracker pool.
type laneEval struct {
	lv   *spec.LaneVisits
	runs []fsync.LaneRun
}

var laneEvalPool = sync.Pool{New: func() any {
	return &laneEval{lv: spec.NewLaneVisits()}
}}

// lockstepEligible reports whether the spec may run on the lane engine
// under the given options, returning the resolved lane algorithm and
// evolving graph when it may — or, when it may not, a short reason tag
// for the engine.skip.* telemetry counters. Overrides (imperative
// algorithm/dynamics, explicit placements, observers — but NOT attached
// Telemetry, which is observational) and adaptive adversaries are
// scalar-only; so are rings wider than the 64-bit presence word and
// algorithms without a bit-parallel core. A dynamics build error also
// reports ineligible: the scalar path rebuilds and reports the identical
// error verdict.
func lockstepEligible(s Spec, o RunOptions, res preparedRun) (robot.LaneAlgorithm, dyngraph.EvolvingGraph, bool, string) {
	if o.Algorithm != nil || o.Dynamics != nil || len(o.Placements) > 0 || len(o.Observers) > 0 {
		return nil, nil, false, "overrides"
	}
	if s.Ring > laneWordSize {
		return nil, nil, false, "ring-width"
	}
	la, ok := res.alg.(robot.LaneAlgorithm)
	if !ok {
		return nil, nil, false, "algorithm"
	}
	dyn, err := res.fam.build(s)
	if err != nil {
		return nil, nil, false, "family-build"
	}
	obl, ok := dyn.(fsync.Oblivious)
	if !ok || obl.G == nil {
		return nil, nil, false, "dynamics"
	}
	return la, obl.G, true, ""
}

// blockKey is the shape a lane group must share: one lockstep run drives
// one ring size, one team size and one algorithm across all its lanes
// (per-lane graphs, placements, horizons and verdicts differ freely).
type blockKey struct {
	ring, robots int
	algorithm    string
}

// RunBlock executes a block of specs, routing shape-aligned eligible runs
// through the lockstep engine (up to 64 seeds per engine instance) and
// everything else through the scalar oracle. Verdicts come back in spec
// order and are byte-identical to per-spec RunWith calls, with run errors
// folded into Verdict.Err exactly like the campaign worker folds them.
// It plans the block and runs its units one after another on the calling
// goroutine; campaigns spread the same units across the worker pool.
func RunBlock(ctx context.Context, specs []Spec, o RunOptions) []Verdict {
	p := blockPlan{specs: specs}
	p.plan(o, false, nil)
	for u := range p.units {
		p.run(ctx, u, o)
	}
	return p.out
}

// blockPlan is a block of specs resolved into run units: every spec
// either has its final verdict already (a cache hit, or a spec that
// fails to resolve) or is a member of exactly one unit. A unit is one
// shape-aligned lane group of up to 64 specs or one scalar spec, and
// units are ordered by their first member, so the units covering a
// prefix of the block are a prefix of the units.
type blockPlan struct {
	specs []Spec
	// out receives every spec's verdict: final ones at planning time,
	// the others when their unit runs.
	out []Verdict
	// graphs holds the resolved evolving graph of every lane member.
	graphs []dyngraph.EvolvingGraph
	// unit is the index of the unit that writes out[i]; 0 for verdicts
	// final at planning time.
	unit  []int
	units []runUnit
	// first is the pool job index of units[0] when the block streams
	// through the worker pool.
	first int
}

// runUnit is one engine job of a planned block.
type runUnit struct {
	// members are block positions in ascending order: up to 64 lanes of
	// one shape, or a single scalar spec. A block without a runnable
	// spec plans one empty unit, so every block has a unit to retire.
	members []int
	// alg is the lane algorithm of a lane unit, nil for a scalar one.
	alg robot.LaneAlgorithm
}

// plan resolves p.specs into run units. lookup, when non-nil, supplies
// cached verdicts, which then need no unit. Under scalar every other
// spec is a unit of its own; otherwise eligible specs are grouped by
// shape, each group split into consecutive 64-lane units, and the rest
// run scalar.
func (p *blockPlan) plan(o RunOptions, scalar bool, lookup func(Spec) (Verdict, bool)) {
	n := len(p.specs)
	p.out = resize(p.out, n)
	p.graphs = resize(p.graphs, n)
	p.unit = resize(p.unit, n)
	p.units = p.units[:0]
	lanes := map[blockKey]int{} // the unit of each shape still taking members
	tel := o.Telemetry
	for i, s := range p.specs {
		p.graphs[i], p.unit[i] = nil, 0
		if lookup != nil {
			if v, ok := lookup(s); ok {
				p.out[i] = v
				continue
			}
		}
		if !scalar {
			v, res, err := prepareRun(s, o)
			if err != nil {
				// The error verdict is final; RunWith would add nothing.
				p.out[i] = v
				continue
			}
			la, g, ok, reason := lockstepEligible(s, o, res)
			if ok {
				key := blockKey{s.Ring, s.Robots, s.Algorithm}
				u, open := lanes[key]
				if !open || len(p.units[u].members) == laneWordSize {
					u = len(p.units)
					p.units = append(p.units, runUnit{alg: la})
					lanes[key] = u
				}
				p.units[u].members = append(p.units[u].members, i)
				p.graphs[i], p.unit[i] = g, u
				continue
			}
			if tel != nil {
				tel.scalarSpecs.Inc()
				tel.skipReason(reason).Inc()
			}
		}
		p.unit[i] = len(p.units)
		p.units = append(p.units, runUnit{members: []int{i}})
	}
	if len(p.units) == 0 {
		p.units = append(p.units, runUnit{})
	}
}

// run executes unit u, writing its members' verdicts into p.out.
func (p *blockPlan) run(ctx context.Context, u int, o RunOptions) {
	un := p.units[u]
	if un.alg == nil {
		for _, i := range un.members {
			p.out[i] = runScalar(ctx, p.specs[i], o)
		}
		return
	}
	ev := laneEvalPool.Get().(*laneEval)
	defer laneEvalPool.Put(ev)
	tel := o.Telemetry
	if tel == nil {
		runLockstepGroup(ctx, p.specs, p.graphs, un.members, un.alg, o, ev, p.out)
		return
	}
	tel.lockstepGroups.Inc()
	tel.lockstepSpecs.Add(int64(len(un.members)))
	tel.laneOccupancy.Observe(len(un.members))
	start := time.Now()
	runLockstepGroup(ctx, p.specs, p.graphs, un.members, un.alg, o, ev, p.out)
	tel.lockstepMillis.Add(time.Since(start).Milliseconds())
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runScalar is RunWith with the campaign worker's error folding.
func runScalar(ctx context.Context, s Spec, o RunOptions) Verdict {
	v, err := RunWith(ctx, s, o)
	if err != nil && v.Err == "" {
		v.Err = err.Error()
		v.OK = false
	}
	return v
}

// runLockstepGroup advances one shape-aligned group of specs (≤ 64) on a
// single lockstep engine instance and writes their verdicts into out. Any
// engine-level failure — configuration rejection or a panic mid-run —
// falls back to scalar runs for the whole group, which rebuild their
// dynamics from the specs and reproduce the verdicts (or the error)
// independently.
func runLockstepGroup(ctx context.Context, specs []Spec, graphs []dyngraph.EvolvingGraph, members []int, alg robot.LaneAlgorithm, o RunOptions, ev *laneEval, out []Verdict) {
	fallback := true
	defer func() {
		if r := recover(); r != nil {
			fallback = true
		}
		if fallback {
			for _, i := range members {
				out[i] = runScalar(ctx, specs[i], o)
			}
		}
	}()

	ev.runs = ev.runs[:0]
	for _, i := range members {
		s := specs[i]
		ev.runs = append(ev.runs, fsync.LaneRun{
			Graph:      graphs[i],
			Placements: placements(o.registry(), s),
			Horizon:    s.Horizon,
		})
	}
	ls, err := fsync.AcquireLockstep(fsync.LockstepConfig{
		Algorithm: alg,
		Lanes:     ev.runs,
		Metrics:   o.Telemetry.simMetrics(),
	})
	if err != nil {
		return // scalar fallback reproduces the rejection per spec
	}

	n := ls.Ring().Size()
	lv := ev.lv
	lv.Reset(n)
	all := ^uint64(0)
	if len(members) < laneWordSize {
		all = uint64(1)<<uint(len(members)) - 1
	}

	check := o.CheckEvery
	if check < 1 {
		check = 256
	}
	sinceCheck := 0
	cancelled := false
	primed := false
	for !ls.Done() {
		if sinceCheck <= 0 {
			if ctx.Err() != nil {
				cancelled = true
				break
			}
			sinceCheck = check
		}
		if !primed {
			// The initial configuration counts as a visited instant, but —
			// like the scalar trackers, which prime on the first observed
			// round — only once at least one round actually executes.
			lv.Record(0, ls.Occupancy(), all)
			primed = true
		}
		stepped := ls.Step()
		lv.Record(ls.Now(), ls.Occupancy(), stepped)
		sinceCheck--
	}
	executed := ls.Now()
	stillActive := ls.Active()
	ls.Release()
	fallback = false

	for l, i := range members {
		s := specs[i]
		v, res, perr := prepareRun(s, o)
		if perr != nil {
			// prepareRun succeeded during grouping; a failure here would be
			// a registry mutation mid-block. Surface the error verdict.
			out[i] = v
			continue
		}
		if cancelled && stillActive&(1<<uint(l)) != 0 {
			instants := executed + 1
			if !primed {
				instants = 0 // no round ran: the scalar tracker saw nothing
			}
			rep := lv.Report(l, instants)
			v.Covered, v.CoverTime, v.MaxGap = rep.Covered, rep.CoverTime, rep.MaxGap
			v.Distinct = rep.Covered
			v.Outcome = "cancelled"
			v.Err = fmt.Sprintf("cancelled after %d of %d rounds: %v", executed, s.Horizon, ctx.Err())
			v.OK = false
			out[i] = v
			continue
		}
		classify(&v, s, res, lv.Report(l, s.Horizon+1))
		out[i] = v
	}
}
