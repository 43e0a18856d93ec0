package pef

import (
	"context"
	"encoding/json"
	"testing"
	"testing/quick"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/robot"
	"pef/internal/spec"
)

// TestTowerLemmasHoldUnderRandomDynamics is the repository's central
// property test: Lemmas 3.3 and 3.4 — no tower of three or more robots,
// and two-robot towers always point in opposite global directions after
// Compute — must hold for PEF_3+ on every connected-over-time dynamics,
// from every towerless initial configuration.
func TestTowerLemmasHoldUnderRandomDynamics(t *testing.T) {
	prop := func(seed uint64, n8, k8, p8 uint8) bool {
		n := int(n8%13) + 4 // 4..16
		k := int(k8%3) + 3  // 3..5
		if k >= n {
			k = n - 1
		}
		p := 0.2 + float64(p8%8)/10 // 0.2..0.9
		src := prng.NewSource(seed)
		ti := spec.NewTowerInvariants()
		base := dynamics.NewBernoulli(n, p, seed)
		g := dynamics.NewBoundedRecurrence(base, 6, seed^0xABCD)
		sim, err := fsync.New(fsync.Config{
			Algorithm:  core.PEF3Plus{},
			Dynamics:   fsync.Oblivious{G: g},
			Placements: fsync.RandomPlacements(n, k, src),
			Observers:  []fsync.Observer{ti},
		})
		if err != nil {
			return false
		}
		sim.Run(40 * n)
		return ti.OK()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestExplorationHoldsUnderRandomRecurrentDynamics checks Theorem 3.1 as a
// property: PEF_3+ covers every node of every bounded-recurrent random
// ring.
func TestExplorationHoldsUnderRandomRecurrentDynamics(t *testing.T) {
	prop := func(seed uint64, n8 uint8) bool {
		n := int(n8%9) + 4 // 4..12
		rep, err := explore(context.Background(), PEF3Plus(), fsync.Oblivious{G: dynamics.NewBoundedRecurrence(
			dynamics.NewBernoulli(n, 0.3, seed), 5, seed^0x77)}, 3, 120*n, seed)
		if err != nil {
			return false
		}
		return rep.Covered == n && rep.MaxGap <= 60*n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConfinementHoldsForRandomizedVictims checks Theorem 5.1 as a
// property: the one-robot adversary confines LCG walkers of every seed.
func TestConfinementHoldsForRandomizedVictims(t *testing.T) {
	prop := func(seed uint64, n8 uint8) bool {
		n := int(n8%14) + 3 // 3..16
		ct, _, err := confine(context.Background(), "confine-one", baseline.LCGWalker{Seed: seed}, n, 48*n)
		if err != nil {
			return false
		}
		return ct.ConfinedTo(2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoRobotConfinementForRandomizedVictims is the two-robot analogue.
func TestTwoRobotConfinementForRandomizedVictims(t *testing.T) {
	prop := func(seed uint64, n8 uint8) bool {
		n := int(n8%13) + 4 // 4..16
		ct, _, err := confine(context.Background(), "confine-two", baseline.LCGWalker{Seed: seed}, n, 48*n)
		if err != nil {
			return false
		}
		return ct.ConfinedTo(3)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordReplayPipeline runs an exploration, serializes the realized
// evolving graph, reloads it, re-runs the same deterministic algorithm on
// the replay and demands an identical execution — the full persistence
// pipeline end to end.
func TestRecordReplayPipeline(t *testing.T) {
	const n, k, horizon = 8, 3, 400
	placements := fsync.EvenPlacements(n, k)

	run := func(dyn Dynamics) ([]int, ExplorationReport) {
		vt := spec.NewVisitTracker(n)
		rec := &fsync.SnapshotRecorder{}
		sim, err := fsync.New(fsync.Config{
			Algorithm:   PEF3Plus(),
			Dynamics:    dyn,
			Placements:  placements,
			Observers:   []fsync.Observer{vt, rec},
			RecordGraph: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		final := sim.Run(horizon)
		// Serialize and reload the graph.
		data, err := json.Marshal(sim.RecordedGraph())
		if err != nil {
			t.Fatal(err)
		}
		var back dyngraph.Recorded
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		// Replay on the reloaded graph.
		vt2 := spec.NewVisitTracker(n)
		sim2, err := fsync.New(fsync.Config{
			Algorithm:  PEF3Plus(),
			Dynamics:   fsync.Oblivious{G: &back},
			Placements: placements,
			Observers:  []fsync.Observer{vt2},
		})
		if err != nil {
			t.Fatal(err)
		}
		final2 := sim2.Run(horizon)
		for i := range final.Positions {
			if final.Positions[i] != final2.Positions[i] || final.States[i] != final2.States[i] {
				t.Fatalf("replay diverged at robot %d: %v/%v vs %v/%v",
					i, final.Positions[i], final.States[i], final2.Positions[i], final2.States[i])
			}
		}
		if vt.Report().MaxGap != vt2.Report().MaxGap {
			t.Fatal("replay changed the exploration report")
		}
		return final.Positions, vt.Report()
	}

	_, rep := run(Bernoulli(n, 0.5, 2024))
	if rep.Covered != n {
		t.Fatalf("pipeline run did not cover: %s", rep)
	}
}

// TestSentinelPipeline integrates dynamics, simulator and the Lemma 3.7
// watch: sentinels must form after the edge disappears and the two posted
// robots must be on the missing edge's extremities.
func TestSentinelPipeline(t *testing.T) {
	const n, k, edge, from, horizon = 10, 3, 4, 20, 2400
	g := dyngraph.NewEventualMissing(
		dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.8, 5), 4, 6), edge, from)
	watch := spec.NewSentinelWatch(g.Ring(), edge, from)
	vt := spec.NewVisitTracker(n)
	sim, err := fsync.New(fsync.Config{
		Algorithm:  PEF3Plus(),
		Dynamics:   fsync.Oblivious{G: g},
		Placements: fsync.EvenPlacements(n, k),
		Observers:  []fsync.Observer{watch, vt},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(horizon)
	srep := watch.Report()
	if !srep.Stabilized {
		t.Fatalf("sentinels never stabilized: %+v", srep)
	}
	if srep.StableFrom < from {
		t.Fatalf("sentinels 'stable' before the edge vanished: %+v", srep)
	}
	if rep := vt.Report(); rep.Covered != n {
		t.Fatalf("exploration failed alongside sentinels: %s", rep)
	}
}

// TestChiralityIrrelevanceForExploration: the paper's robots do not share
// orientation; exploration must succeed for every chirality assignment.
func TestChiralityIrrelevanceForExploration(t *testing.T) {
	const n, k = 6, 3
	for mask := 0; mask < 1<<k; mask++ {
		placements := make([]fsync.Placement, k)
		for i := 0; i < k; i++ {
			ch := robot.RightIsCW
			if mask&(1<<i) != 0 {
				ch = robot.RightIsCCW
			}
			placements[i] = fsync.Placement{Node: 2 * i, Chirality: ch}
		}
		rep, err := explore(context.Background(), PEF3Plus(), EventualMissing(n, 1, 16, uint64(mask)), k, 1600, 0, placements...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Covered != n {
			t.Fatalf("chirality mask %03b broke exploration: %s", mask, rep)
		}
	}
}
