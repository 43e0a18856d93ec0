package pef_test

import (
	"context"
	"fmt"

	"pef"
)

// The possibility side of Table 1: three PEF_3+ robots perpetually explore
// a ring whose edge vanishes forever — the paper's canonical hard case. A
// visit tracker attached to the run reports per-node coverage.
func ExampleNewVisitTracker() {
	report := pef.NewVisitTracker(8)
	_, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: "random",
		Family: "eventual-missing", Params: pef.ScenarioParams{Edge: 2, From: 32, P: 0.7, Delta: 4},
		Horizon: 2000, Seed: 7,
	}, pef.WithObservers(report))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep := report.Report()
	fmt.Printf("covered %d/%d nodes\n", rep.Covered, rep.Nodes)
	fmt.Printf("perpetual: %t\n", rep.PerpetuallyExplored(1000))
	// Output:
	// covered 8/8 nodes
	// perpetual: true
}

// The impossibility side: the Theorem 5.1 adversary confines any single
// deterministic robot — here the paper's own PEF_3+ run with one robot —
// to two nodes of an 8-node ring.
func ExampleNewConfinementTracker() {
	visited := pef.NewConfinementTracker()
	_, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: 8, Robots: 1, Algorithm: "pef3+", Placement: "adjacent",
		Family: "confine-one", Horizon: 512,
	}, pef.WithObservers(visited))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("visited %d nodes (limit %d): confined=%t\n",
		visited.Distinct(), 2, visited.ConfinedTo(2))
	// Output:
	// visited 2 nodes (limit 2): confined=true
}

// Two robots fare no better on rings of size at least four: the four-phase
// schedule of Theorem 4.1 (Figure 2) confines them to three nodes.
func ExampleNewConfinementTracker_twoRobots() {
	visited := pef.NewConfinementTracker()
	_, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: 8, Robots: 2, Algorithm: "pef2", Placement: "adjacent",
		Family: "confine-two", Horizon: 512,
	}, pef.WithObservers(visited))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("visited %d nodes (limit %d): confined=%t\n",
		visited.Distinct(), 3, visited.ConfinedTo(3))
	// Output:
	// visited 3 nodes (limit 3): confined=true
}

// Explicit placements fix the initial configuration: the paper requires a
// towerless start with fewer robots than nodes.
func ExampleWithPlacements() {
	verdict, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: 6, Robots: 3, Algorithm: "pef3+", Placement: "random",
		Family: "static", Horizon: 120,
	}, pef.WithPlacements(
		pef.Placement{Node: 0, Chirality: pef.RightIsCW},
		pef.Placement{Node: 2, Chirality: pef.RightIsCW},
		pef.Placement{Node: 4, Chirality: pef.RightIsCW},
	))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("cover time %d, max revisit gap %d\n", verdict.CoverTime, verdict.MaxGap)
	// Output:
	// cover time 1, max revisit gap 2
}

// The unified entry point: one declarative scenario, one context-aware
// call, one structured verdict checked against the paper's prediction.
func ExampleRun() {
	verdict, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: "even",
		Family: "eventual-missing", Params: pef.ScenarioParams{Edge: 2, From: 32, P: 0.7, Delta: 4},
		Horizon: 1600, Seed: 42,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("expect=%s outcome=%s ok=%t covered=%d/8\n",
		verdict.Expect, verdict.Outcome, verdict.OK, verdict.Covered)
	// Output:
	// expect=explore outcome=explored ok=true covered=8/8
}

// RunSeeds amortizes one scenario shape across many seeds: up to 64
// seeds advance bit-parallel per machine word on the lockstep engine,
// and every verdict is byte-identical to a scalar Run with that seed.
func ExampleRunSeeds() {
	shape := pef.Scenario{
		Version: 1, Ring: 10, Robots: 3, Algorithm: "pef3+", Placement: "random",
		Family: "bernoulli", Params: pef.ScenarioParams{P: 0.7},
		Horizon: 2000,
	}
	seeds := make([]uint64, 64)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	verdicts, err := pef.RunSeeds(context.Background(), shape, seeds)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	explored := 0
	for _, v := range verdicts {
		if v.OK && v.Outcome == "explored" {
			explored++
		}
	}
	fmt.Printf("%d/%d seeds explored the ring\n", explored, len(verdicts))
	// Output:
	// 64/64 seeds explored the ring
}

// Campaigns stream verdicts in canonical order with bounded memory: fold
// them into a CampaignAggregate for reports (byte-identical to the
// collected RunCampaign path) and checkpoint at any cut for resumption.
func ExampleStreamCampaign() {
	cfg := pef.CampaignConfig{
		Generator: "boundary",
		Gen:       pef.GenConfig{MaxRing: 8},
		Count:     50,
		Seeds:     []uint64{1, 2},
		Workers:   2,
	}
	agg, err := pef.NewCampaignAggregate(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for verdict, err := range pef.StreamCampaign(context.Background(), cfg) {
		if err != nil {
			fmt.Println("stream error:", err)
			return
		}
		agg.Add(verdict) // O(aggregate) memory, however long the campaign
	}
	fmt.Printf("%d scenarios, %d ok, %d violations\n",
		agg.Done(), agg.OKCount(), len(agg.Violations()))
	fmt.Printf("checkpoint covers %d scenarios\n", agg.Checkpoint().Done)
	// Output:
	// 100 scenarios, 100 ok, 0 violations
	// checkpoint covers 100 scenarios
}

// Minimize shrinks a violating scenario to a minimal reproducer: here a
// deliberately broken claim — the oscillator baseline forced under the
// explore expectation — reduces from a 12-node, 2400-round scenario to a
// 5-node, 6-round one that still fails, while the paper's own PEF_3+
// still passes at the shrunk size (so the failure stays attributable).
func ExampleMinimize() {
	broken := pef.Scenario{
		Version: 1, Ring: 12, Robots: 3, Algorithm: "oscillator",
		Placement: "adjacent", Family: "static", Horizon: 2400, Seed: 7,
		Expect: "explore",
	}
	minimal := pef.Minimize(broken)
	fmt.Printf("minimal reproducer: %s\n", minimal.ID())
	verdict, _ := pef.Run(context.Background(), minimal)
	fmt.Printf("still violating: %t\n", !verdict.OK)
	// Output:
	// minimal reproducer: v1/n5.k3/oscillator/adjacent/static/h6/s7/explore
	// still violating: true
}

// The extension registry makes user dynamics first-class: register a
// family descriptor once and declarative scenarios, campaigns, the
// minimizer and the CLI listings all resolve it by name. Here a "half-day"
// family — edges alternate day/night shifts of Period rounds, phase split
// down the middle of the ring — runs under the paper's explore predicate.
func ExampleRegisterFamily() {
	err := pef.RegisterFamily("half-day", pef.FamilyDescriptor{
		Description: "edges on the first half of the ring work days, the rest nights",
		Params: []pef.ParamField{
			{Name: "period", Kind: pef.ParamInt, Min: 1, Max: 32, Required: true, Doc: "shift length"},
		},
		Explorable: true,
		Graph: func(s pef.Scenario) (pef.EvolvingGraph, error) {
			r := pef.NewRing(s.Ring)
			period, half := s.Params.Period, s.Ring/2
			return presentFunc{r: r, f: func(e, t int) bool {
				day := (t/period)%2 == 0
				return day == (e < half)
			}}, nil
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	verdict, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: "even",
		Family: "half-day", Params: pef.ScenarioParams{Period: 3},
		Horizon: 2400, Seed: 5,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("expect=%s outcome=%s ok=%t\n", verdict.Expect, verdict.Outcome, verdict.OK)
	// Output:
	// expect=explore outcome=explored ok=true
}

// Search hunts the theorem boundary: a seeded bandit over the
// explorable families plus mutation of the lowest-margin survivors
// concentrates the campaign budget where the paper's predicates have
// the least slack. Fixed-seed searches are byte-identical for any
// worker count, and the near-violation corpus doubles as the seed
// corpus of FuzzScenario (go test -fuzz).
func ExampleSearch() {
	res, err := pef.Search(context.Background(), pef.SearchConfig{
		Registry: pef.NewRegistry(), // builtins only: hermetic whatever else is registered
		Seed:     11, Generations: 4, GenerationSize: 32, Warmup: 2, CorpusSize: 8,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d samples, %d mutations, %d violations\n",
		res.Samples, res.Mutations, len(res.Violations))
	fmt.Printf("corpus holds %d near-violation specs\n", len(res.Corpus))
	tightest := res.Boundary[0]
	for _, row := range res.Boundary {
		if row.RelMin < tightest.RelMin {
			tightest = row
		}
	}
	fmt.Printf("tightest margin: %s %s at %d‰ of its bound\n",
		tightest.Family, tightest.Metric, tightest.RelMin)
	// Output:
	// 128 samples, 32 mutations, 0 violations
	// corpus holds 8 near-violation specs
	// tightest margin: bernoulli gapHeadroom at 960‰ of its bound
}

// presentFunc adapts a presence function to the EvolvingGraph interface.
type presentFunc struct {
	r pef.Ring
	f func(e, t int) bool
}

func (g presentFunc) Ring() pef.Ring { return g.r }
func (g presentFunc) Present(e, t int) bool {
	return g.r.ValidEdge(e) && t >= 0 && g.f(e, t)
}

// ComposeFamilies folds registered oblivious families into one schedule —
// here the intersection of Bernoulli noise with a T-interval-connected
// ring, each adversary vetoing edges independently. The descriptor can be
// registered like any family; building it directly shows the shared
// parameter bag in action.
func ExampleComposeFamilies() {
	desc, err := pef.ComposeFamilies(pef.ComposeIntersect, "bernoulli", "t-interval")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(desc.Description)
	verdict, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: "even",
		Family: "compose:intersect", Params: pef.ScenarioParams{P: 0.8, T: 4},
		Horizon: 1600, Seed: 11,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("expect=%s outcome=%s ok=%t\n", verdict.Expect, verdict.Outcome, verdict.OK)
	// Output:
	// intersect of bernoulli+t-interval edge schedules
	// expect=explore outcome=explored ok=true
}
