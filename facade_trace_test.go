package pef

import (
	"context"
	"strings"
	"testing"
)

func TestExploreWithDiagramRendersRows(t *testing.T) {
	d := NewDiagram(5)
	vt := NewVisitTracker(6)
	if _, err := Run(context.Background(), Scenario{
		Version: 1, Ring: 6, Robots: 3, Algorithm: "pef3+", Placement: "random",
		Family: "static", Horizon: 50, Seed: 3,
	}, WithObservers(d, vt)); err != nil {
		t.Fatal(err)
	}
	if rep := vt.Report(); rep.Covered != 6 {
		t.Fatalf("not covered: %s", rep)
	}
	diagram := d.String()
	lines := strings.Split(strings.TrimRight(diagram, "\n"), "\n")
	if len(lines) != 6 { // header + 5 rows
		t.Fatalf("diagram has %d lines:\n%s", len(lines), diagram)
	}
	if !strings.Contains(diagram, "t=   0") {
		t.Fatalf("diagram missing first instant:\n%s", diagram)
	}
}

// TestExploreWithDiagramValidation: a run the oracle rejects executes no
// round, so the diagram stays empty; zero rows render nothing either.
func TestExploreWithDiagramValidation(t *testing.T) {
	d := NewDiagram(4)
	if _, err := Run(context.Background(), Scenario{
		Version: 1, Ring: 4, Robots: 9, Algorithm: "pef1", Placement: "random",
		Family: "static", Horizon: 50,
	}, WithObservers(d)); err == nil {
		t.Error("oversized team accepted")
	}
	if d.String() != "" {
		t.Errorf("rejected run rendered a diagram:\n%s", d)
	}
	empty := NewDiagram(0)
	if _, err := Run(context.Background(), exploreScenario(), WithObservers(empty)); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "" {
		t.Error("rows=0 should render nothing")
	}
}

func TestConfineWithDiagramVariants(t *testing.T) {
	for _, c := range []struct {
		family string
		k      int
		want   string // a marker the schedule must show
	}{
		{"confine-one", 1, "~"},
		{"confine-two", 2, "[1]"},
	} {
		d := NewDiagram(6)
		v, err := Run(context.Background(), Scenario{
			Version: 1, Ring: 8, Robots: c.k, Algorithm: "pef3+", Placement: "adjacent",
			Family: c.family, Horizon: 200,
		}, WithObservers(d))
		if err != nil {
			t.Fatal(err)
		}
		if !v.OK || !strings.Contains(d.String(), c.want) {
			t.Fatalf("%s diagram missing %q: %+v\n%s", c.family, c.want, v, d)
		}
	}
}

func TestPeriodicFacadeValidation(t *testing.T) {
	if _, err := Periodic(2, [][]bool{{true}}); err == nil {
		t.Error("pattern count mismatch accepted")
	}
	dyn, err := Periodic(3, [][]bool{{true}, {true, false}, {false, true}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore(context.Background(), PEF3Plus(), dyn, 2, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 3 {
		t.Fatalf("periodic facade run failed: %s", rep)
	}
}
