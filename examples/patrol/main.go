// Patrol: the surveillance scenario from the paper's introduction. A ring
// of 12 rooms must be patrolled while doors open and close unpredictably
// (no stability or periodicity assumption — only connected-over-time).
// Three PEF_3+ guards patrol; the example checks every room against an
// inspection deadline and prints the patrol log.
//
//	go run ./examples/patrol
package main

import (
	"context"
	"fmt"
	"log"

	"pef"
)

func main() {
	const (
		rooms    = 12
		guards   = 3
		shift    = 6000 // rounds in one patrol shift
		deadline = 900  // max rounds a room may stay uninspected
		seed     = 2026
	)

	// Doors behave adversarially: every door a guard walks towards slams
	// shut, but no door can stay shut more than 4 consecutive rounds
	// (fire regulations, say). This is the block-pointed stress adversary —
	// the worst connected-over-time behaviour the theory still tolerates.
	visits := pef.NewVisitTracker(rooms)
	_, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: rooms, Robots: guards, Algorithm: "pef3+", Placement: "random",
		Family: "block-pointed", Params: pef.ScenarioParams{Budget: 4},
		Horizon: shift, Seed: seed,
	}, pef.WithObservers(visits))
	if err != nil {
		log.Fatal(err)
	}
	report := visits.Report()

	fmt.Printf("Patrolling %d rooms with %d guards for %d rounds\n", rooms, guards, shift)
	fmt.Printf("(adversarial doors: every door a guard approaches closes, budget 4)\n\n")
	fmt.Printf("%-6s %-8s %-10s\n", "room", "visits", "status")
	breaches := 0
	for room, visits := range report.Visits {
		status := "ok"
		if visits == 0 {
			status = "NEVER INSPECTED"
			breaches++
		}
		fmt.Printf("%-6d %-8d %-10s\n", room, visits, status)
	}
	fmt.Printf("\nworst inspection gap: %d rounds (deadline %d)\n", report.MaxGap, deadline)
	if breaches == 0 && report.MaxGap <= deadline {
		fmt.Println("shift verdict: every room inspected within deadline.")
	} else {
		fmt.Printf("shift verdict: %d rooms breached the deadline policy.\n", breaches)
	}
}
