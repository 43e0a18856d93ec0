package adversary

import (
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/ring"
	"pef/internal/robot"
	"pef/internal/spec"
)

// adaptiveCase is one adaptive adversary with a victim configuration it
// can run against indefinitely (the confinement victims keep moving, so
// the escape guards never fire).
type adaptiveCase struct {
	name  string
	build func() fsync.Dynamics
	alg   robot.Algorithm
	place []fsync.Placement
}

func adaptiveCases() []adaptiveCase {
	pair := []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}, {Node: 1, Chirality: robot.RightIsCW}}
	return []adaptiveCase{
		{"block-pointed", func() fsync.Dynamics { return NewBlockPointed(16, 3) }, core.PEF3Plus{}, fsync.EvenPlacements(16, 3)},
		{"block-both-sides", func() fsync.Dynamics { return NewBlockBothSides(16, 2) }, core.PEF3Plus{}, fsync.EvenPlacements(16, 3)},
		{"one-robot-confinement", func() fsync.Dynamics { return NewOneRobotConfinement(8, 0, 0) }, baseline.BounceOnMissing{}, pair[:1]},
		{"two-robot-confinement", func() fsync.Dynamics { return NewTwoRobotConfinement(8, 0, 0, 1) }, baseline.BounceOnMissing{}, pair},
		{"arc-containment", func() fsync.Dynamics { return NewArcContainment(16, 0, 6, 4) }, core.PEF3Plus{}, fsync.AdjacentPlacements(16, 3, 0)},
	}
}

// TestStepAllocationFreeAdaptive extends the round engine's allocation
// guard to every adaptive adversary: each writes E_t into the simulator's
// presence-set buffer, so a steady-state Step allocates nothing. Skipped
// under -race (instrumented allocation counts).
func TestStepAllocationFreeAdaptive(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range adaptiveCases() {
		t.Run(c.name, func(t *testing.T) {
			sim, err := fsync.New(fsync.Config{Algorithm: c.alg, Dynamics: c.build(), Placements: c.place})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(32) // warm-up: size every scratch buffer
			if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
				t.Fatalf("Step allocates %v objects per round in steady state, want 0", allocs)
			}
		})
	}
}

// dirtyBuffers drives two identically built adversaries on the same
// snapshots, handing one an all-set buffer and the other an all-clear
// buffer each round. Any difference means an adversary read the previous
// contents of dst instead of overwriting every bit.
type dirtyBuffers struct {
	t       *testing.T
	onSet   fsync.Dynamics // always handed an all-set dst
	onClear fsync.Dynamics // always handed an all-clear dst
	cleared ring.EdgeSet
}

func (d *dirtyBuffers) Ring() ring.Ring { return d.onSet.Ring() }

func (d *dirtyBuffers) EdgesAtInto(t int, snap fsync.Snapshot, dst *ring.EdgeSet) {
	dst.Fill()
	d.onSet.EdgesAtInto(t, snap, dst)
	d.cleared.Clear()
	d.onClear.EdgesAtInto(t, snap, &d.cleared)
	if !dst.Equal(d.cleared) {
		d.t.Fatalf("t=%d: E_t from an all-set buffer %v, from an all-clear buffer %v", t, *dst, d.cleared)
	}
}

// TestEdgesAtIntoOverwritesBuffer pins the in-place contract of every
// adaptive adversary: E_t does not depend on what dst held before.
func TestEdgesAtIntoOverwritesBuffer(t *testing.T) {
	for _, c := range adaptiveCases() {
		t.Run(c.name, func(t *testing.T) {
			onSet := c.build()
			d := &dirtyBuffers{t: t, onSet: onSet, onClear: c.build(), cleared: ring.NewEdgeSet(onSet.Ring().Edges())}
			sim, err := fsync.New(fsync.Config{Algorithm: c.alg, Dynamics: d, Placements: c.place})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(200)
		})
	}
}

// TestConfinementDistinctIsVisitCovered pins the identity the scenario
// oracle relies on when it reports VisitTracker's Covered as a verdict's
// Distinct: on the same run, ConfinementTracker.Distinct counts the same
// ever-visited set. Runs are seeded, adversarial and oblivious.
func TestConfinementDistinctIsVisitCovered(t *testing.T) {
	check := func(t *testing.T, n int, dyn fsync.Dynamics, alg robot.Algorithm, place []fsync.Placement, horizon int) {
		t.Helper()
		ct := spec.NewConfinementTracker()
		vt := spec.NewVisitTracker(n)
		sim, err := fsync.New(fsync.Config{Algorithm: alg, Dynamics: dyn, Placements: place, Observers: []fsync.Observer{ct, vt}})
		if err != nil {
			t.Fatal(err)
		}
		for sim.Now() < horizon {
			sim.Step()
			if d, c := ct.Distinct(), vt.Report().Covered; d != c {
				t.Fatalf("t=%d: ConfinementTracker.Distinct %d != VisitTracker Covered %d", sim.Now(), d, c)
			}
		}
		if got := len(ct.VisitedNodes()); got != ct.Distinct() {
			t.Fatalf("VisitedNodes lists %d nodes, Distinct %d", got, ct.Distinct())
		}
	}
	for _, c := range adaptiveCases() {
		t.Run(c.name, func(t *testing.T) {
			dyn := c.build()
			check(t, dyn.Ring().Size(), dyn, c.alg, c.place, 300)
		})
	}
	for seed := uint64(1); seed <= 8; seed++ {
		src := prng.NewSource(seed)
		n := 4 + src.Intn(12)
		k := 1 + src.Intn(3)
		place := fsync.RandomPlacements(n, k, src)
		check(t, n, NewBlockPointed(n, 1+src.Intn(4)), core.PEF3Plus{}, place, 150)
		check(t, n, fsync.Oblivious{G: dynamics.NewBernoulli(n, 0.5, seed)}, core.PEF3Plus{}, place, 150)
	}
}
