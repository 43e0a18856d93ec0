// Chain: the paper's closing remark of Section 1 — a connected-over-time
// chain is a connected-over-time ring with one edge missing forever, so all
// results transfer. A mine gallery (dead-end corridor) is swept perpetually
// by three PEF_3+ robots while rockfalls block individual segments for
// short periods.
//
//	go run ./examples/chain
package main

import (
	"context"
	"fmt"
	"log"

	"pef"
)

func main() {
	const (
		segments = 10 // nodes of the gallery
		cut      = 9  // the "edge" that never existed: ring -> chain
		robots   = 3
		horizon  = 6000
		seed     = 77
	)

	// WithDynamics runs an explicit Dynamics value; the scenario's Family
	// then only labels the verdict.
	visits := pef.NewVisitTracker(segments)
	_, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: segments, Robots: robots, Algorithm: "pef3+", Placement: "random",
		Family: "chain", Horizon: horizon, Seed: seed,
	}, pef.WithDynamics(pef.Chain(segments, cut, seed)), pef.WithObservers(visits))
	if err != nil {
		log.Fatal(err)
	}
	report := visits.Report()

	fmt.Printf("Mine gallery: %d chambers in a line (ring with edge %d permanently removed),\n", segments, cut)
	fmt.Printf("%d sweep robots, transient rockfalls on every other segment\n\n", robots)
	fmt.Printf("chambers swept: %d/%d (all by round %d)\n", report.Covered, report.Nodes, report.CoverTime)
	fmt.Printf("longest unswept stretch: %d rounds\n", report.MaxGap)
	fmt.Printf("sweeps per chamber: %v\n", report.Visits)
	if report.PerpetuallyExplored(horizon / 2) {
		fmt.Println("\nverdict: the chain is perpetually explored — the ring results transfer.")
	} else {
		fmt.Println("\nverdict: exploration not sustained (unexpected).")
	}
}
