// Quickstart: three PEF_3+ robots perpetually explore an 8-node ring whose
// edge 2 disappears forever at round 32 — the paper's canonical hard case.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pef"
)

func main() {
	const (
		nodes   = 8
		robots  = 3
		horizon = 2000
		seed    = 42
	)

	visits := pef.NewVisitTracker(nodes)
	_, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: nodes, Robots: robots, Algorithm: "pef3+", Placement: "random",
		Family: "eventual-missing", Params: pef.ScenarioParams{Edge: 2, From: 32, P: 0.7, Delta: 4},
		Horizon: horizon, Seed: seed,
	}, pef.WithObservers(visits))
	if err != nil {
		log.Fatal(err)
	}
	report := visits.Report()

	fmt.Printf("PEF_3+ with %d robots on an %d-node connected-over-time ring\n", robots, nodes)
	fmt.Printf("(edge 2 disappears forever at round 32)\n\n")
	fmt.Printf("covered      %d/%d nodes, all visited by round %d\n", report.Covered, report.Nodes, report.CoverTime)
	fmt.Printf("max gap      %d rounds between consecutive visits (node %d)\n", report.MaxGap, report.WorstNode)
	fmt.Printf("visits/node  %v\n\n", report.Visits)

	if report.PerpetuallyExplored(horizon / 2) {
		fmt.Println("verdict: perpetual exploration sustained — Theorem 3.1 in action.")
	} else {
		fmt.Println("verdict: exploration NOT sustained (unexpected; file a bug).")
	}
}
