package pef

import (
	"context"
	"strings"
	"sync"
	"testing"
)

var registerOnce sync.Once

func register() { registerOnce.Do(RegisterBuiltins) }

// explore runs alg on dyn through Run with a visit tracker attached and
// returns the tracker's report. The team is k robots placed at random
// from seed, or the explicit placements when given; the scenario makes no
// claim, so the report is the whole result.
func explore(ctx context.Context, alg Algorithm, dyn Dynamics, k, horizon int, seed uint64, placements ...Placement) (ExplorationReport, error) {
	n := dyn.Ring().Size()
	if len(placements) > 0 {
		k = len(placements)
	}
	vt := NewVisitTracker(n)
	_, err := Run(ctx, Scenario{
		Version: 1, Ring: n, Robots: k, Algorithm: alg.Name(), Placement: "random",
		Family: "external", Horizon: horizon, Seed: seed, Expect: "none",
	}, WithAlgorithm(alg), WithDynamics(dyn), WithPlacements(placements...), WithObservers(vt))
	return vt.Report(), err
}

// confine runs alg against one of the confinement adversaries (family
// "confine-one" or "confine-two") through Run and returns the tracker of
// the nodes the robots visited.
func confine(ctx context.Context, family string, alg Algorithm, n, horizon int) (*ConfinementTracker, ScenarioVerdict, error) {
	k := 1
	if family == "confine-two" {
		k = 2
	}
	ct := NewConfinementTracker()
	v, err := Run(ctx, Scenario{
		Version: 1, Ring: n, Robots: k, Algorithm: alg.Name(), Placement: "adjacent",
		Family: family, Horizon: horizon,
	}, WithAlgorithm(alg), WithObservers(ct))
	return ct, v, err
}

func TestExploreStaticRing(t *testing.T) {
	rep, err := explore(context.Background(), PEF3Plus(), Static(8), 3, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PerpetuallyExplored(64) {
		t.Fatalf("static ring not explored: %s", rep)
	}
}

func TestExploreEventualMissing(t *testing.T) {
	rep, err := explore(context.Background(), PEF3Plus(), EventualMissing(8, 2, 30, 7), 3, 1600, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 8 || rep.CoverTime < 0 {
		t.Fatalf("eventual-missing ring not covered: %s", rep)
	}
}

func TestExploreAllThreeAlgorithmsInTheirRange(t *testing.T) {
	cases := []struct {
		name    string
		alg     Algorithm
		dyn     Dynamics
		k       int
		horizon int
		seed    uint64
	}{
		{"pef3+ n=5 k=3", PEF3Plus(), Bernoulli(5, 0.6, 3), 3, 1200, 3},
		{"pef2 n=3 k=2", PEF2(), Bernoulli(3, 0.6, 4), 2, 1200, 4},
		{"pef1 n=2 k=1", PEF1(), Bernoulli(2, 0.6, 5), 1, 800, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := explore(context.Background(), c.alg, c.dyn, c.k, c.horizon, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Covered != rep.Nodes {
				t.Fatalf("not covered: %s", rep)
			}
			if rep.MaxGap > c.horizon/2 {
				t.Fatalf("gap too large: %s", rep)
			}
		})
	}
}

// TestExploreValidation: an imperative run is checked like a declarative
// one — a team as large as the ring, or dynamics on a ring of another
// size, is a configuration error, not a silently empty report.
func TestExploreValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := explore(ctx, PEF1(), Static(4), 4, 100, 1); err == nil {
		t.Error("k = n accepted")
	}
	if _, err := explore(ctx, PEF1(), Static(4), 0, 100, 1); err == nil {
		t.Error("empty team accepted")
	}
	s := exploreScenario()
	s.Ring = 5
	if _, err := Run(ctx, s, WithDynamics(Static(4))); err == nil {
		t.Error("inconsistent ring size accepted")
	}
}

func TestConfineOneRobotFacade(t *testing.T) {
	ct, v, err := confine(context.Background(), "confine-one", PEF3Plus(), 8, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !ct.ConfinedTo(2) || ct.Distinct() > 2 || !v.OK || v.Outcome != "confined" {
		t.Fatalf("one robot escaped: visited %v, verdict %+v", ct.VisitedNodes(), v)
	}
	if len(ct.VisitedNodes()) != ct.Distinct() {
		t.Fatal("VisitedNodes inconsistent")
	}
}

func TestConfineTwoRobotsFacade(t *testing.T) {
	ct, v, err := confine(context.Background(), "confine-two", PEF3Plus(), 8, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !ct.ConfinedTo(3) || ct.Distinct() > 3 || !v.OK || v.Outcome != "confined" {
		t.Fatalf("two robots escaped: visited %v, verdict %+v", ct.VisitedNodes(), v)
	}
}

func TestBlockPointedDynamicsFacade(t *testing.T) {
	rep, err := explore(context.Background(), PEF3Plus(), BlockPointed(6, 3), 3, 1200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 6 {
		t.Fatalf("block-pointed defeated PEF_3+: %s", rep)
	}
}

func TestChainAndRovingDynamics(t *testing.T) {
	for name, dyn := range map[string]Dynamics{
		"chain":  Chain(6, 2, 13),
		"roving": Roving(6, 3),
	} {
		rep, err := explore(context.Background(), PEF3Plus(), dyn, 3, 1800, 13)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Covered != 6 {
			t.Fatalf("%s not covered: %s", name, rep)
		}
	}
}

func TestTIntervalDynamics(t *testing.T) {
	rep, err := explore(context.Background(), PEF3Plus(), TInterval(8, 4, 17), 3, 1600, 17)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 8 {
		t.Fatalf("t-interval not covered: %s", rep)
	}
}

func TestRegistryFacade(t *testing.T) {
	register()
	names := Algorithms()
	if len(names) == 0 {
		t.Fatal("no registered algorithms")
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"pef1", "pef2", "pef3+", "bounce-on-missing"} {
		if !strings.Contains(joined, want) {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	alg, err := NewAlgorithm("pef3+")
	if err != nil || alg.Name() != "pef3+" {
		t.Fatalf("NewAlgorithm: %v", err)
	}
	if _, err := NewAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestExplicitPlacements(t *testing.T) {
	rep, err := explore(context.Background(), PEF3Plus(), Static(6), 0, 120, 0,
		Placement{Node: 0, Chirality: RightIsCW},
		Placement{Node: 2, Chirality: RightIsCCW},
		Placement{Node: 4, Chirality: RightIsCW},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 6 {
		t.Fatalf("explicit placements run failed: %s", rep)
	}
}
