// Subway: the public-transport scenario of Flocchini, Mans and Santoro
// (cited as [16]/[19] in the paper) recast in the paper's model. A circular
// metro line of 10 stations runs on per-segment timetables: each track
// segment is only usable during its scheduled windows. Three inspectors
// running PEF_3+ — who know nothing about the timetables — must still
// visit every station infinitely often, because a periodic line is in
// particular connected-over-time.
//
//	go run ./examples/subway
package main

import (
	"context"
	"fmt"
	"log"

	"pef"
)

// timetable builds a period-8 schedule for segment e: the segment is open
// for a contiguous window whose offset shifts along the line, like a train
// circulating.
func timetable(e, stations int) []bool {
	const period = 8
	pattern := make([]bool, period)
	start := (e * 3) % period
	for w := 0; w < 4; w++ {
		pattern[(start+w)%period] = true
	}
	return pattern
}

func main() {
	const (
		stations   = 10
		inspectors = 3
		horizon    = 4000
	)

	patterns := make([][]bool, stations)
	for e := range patterns {
		patterns[e] = timetable(e, stations)
	}
	line, err := pef.Periodic(stations, patterns)
	if err != nil {
		log.Fatal(err)
	}

	visits := pef.NewVisitTracker(stations)
	diagram := pef.NewDiagram(12)
	_, err = pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: stations, Robots: inspectors, Algorithm: "pef3+", Placement: "random",
		Family: "periodic", Horizon: horizon, Seed: 7,
	}, pef.WithDynamics(line), pef.WithObservers(visits, diagram))
	if err != nil {
		log.Fatal(err)
	}
	report := visits.Report()

	fmt.Printf("Circular line with %d stations, %d ticket inspectors, period-8 timetables\n\n", stations, inspectors)
	fmt.Print(diagram)
	fmt.Printf("\nstations covered: %d/%d (all by round %d)\n", report.Covered, report.Nodes, report.CoverTime)
	fmt.Printf("longest uninspected stretch: %d rounds\n", report.MaxGap)
	if report.PerpetuallyExplored(horizon / 2) {
		fmt.Println("verdict: every station is inspected infinitely often — no timetable knowledge needed.")
	} else {
		fmt.Println("verdict: inspection gaps too large (unexpected).")
	}
}
