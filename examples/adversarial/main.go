// Adversarial: the impossibility side of the paper, live. The Theorem 5.1
// adversary confines any single robot to 2 nodes; the Theorem 4.1 adversary
// confines any two robots to 3 nodes — here demonstrated against the
// strongest single-robot candidate (bounce-on-missing) and against the
// paper's own PEF_3+ run below its robot requirement. The printed
// space-time diagrams are the executable Figures 2 and 3.
//
//	go run ./examples/adversarial
package main

import (
	"context"
	"fmt"
	"log"

	"pef"
)

// confine runs the confinement adversary of family ("confine-one", the
// Theorem 5.1 schedule, or "confine-two", Theorem 4.1) against the named
// algorithm and returns the visited nodes and the diagram of its first
// rows rounds.
func confine(family, alg string, robots, n, rows int) (*pef.ConfinementTracker, *pef.Diagram) {
	visited, diagram := pef.NewConfinementTracker(), pef.NewDiagram(rows)
	_, err := pef.Run(context.Background(), pef.Scenario{
		Version: 1, Ring: n, Robots: robots, Algorithm: alg, Placement: "adjacent",
		Family: family, Horizon: 400,
	}, pef.WithObservers(visited, diagram))
	if err != nil {
		log.Fatal(err)
	}
	return visited, diagram
}

func main() {
	const n = 8

	fmt.Println("=== Theorem 5.1: one robot, ring of size 8 (Figure 3) ===")
	one, diag1 := confine("confine-one", "bounce-on-missing", 1, n, 10)
	fmt.Print(diag1)
	fmt.Printf("\nbounce-on-missing visited %d/%d nodes %v — confined: %t\n\n",
		one.Distinct(), n, one.VisitedNodes(), one.ConfinedTo(2))

	fmt.Println("=== Theorem 4.1: two robots, ring of size 8 (Figure 2) ===")
	two, diag2 := confine("confine-two", "bounce-on-missing", 2, n, 14)
	fmt.Print(diag2)
	fmt.Printf("\nbounce-on-missing pair visited %d/%d nodes %v — confined: %t\n\n",
		two.Distinct(), n, two.VisitedNodes(), two.ConfinedTo(3))

	fmt.Println("=== The paper's own algorithms below their robot requirement ===")
	for _, name := range []string{"pef3+", "pef2", "pef1"} {
		one, _ := confine("confine-one", name, 1, n, 0)
		two, _ := confine("confine-two", name, 2, n, 0)
		fmt.Printf("%-6s  1 robot: %d nodes (confined %t)   2 robots: %d nodes (confined %t)\n",
			name, one.Distinct(), one.ConfinedTo(2), two.Distinct(), two.ConfinedTo(3))
	}
	fmt.Println("\nThree robots are not a convenience — they are the computability threshold.")
}
