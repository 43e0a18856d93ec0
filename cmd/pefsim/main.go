// Command pefsim runs one fully synchronous execution of a perpetual
// exploration algorithm on a dynamic ring and reports the exploration
// verdict, optionally with a space-time diagram of the first rounds.
//
// Examples:
//
//	pefsim -n 8 -k 3 -alg pef3+ -dyn eventual-missing -rounds 2000
//	pefsim -n 3 -k 2 -alg pef2 -dyn bernoulli -p 0.5 -rounds 1000
//	pefsim -n 8 -k 3 -alg pef3+ -dyn block-pointed -budget 3 -viz 40
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pef"
	"pef/internal/durable"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/spec"
	"pef/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pefsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n      = flag.Int("n", 8, "ring size (number of nodes)")
		k      = flag.Int("k", 3, "number of robots")
		algo   = flag.String("alg", "pef3+", "algorithm name (see -list)")
		dyn    = flag.String("dyn", "static", "dynamics: static|bernoulli|eventual-missing|t-interval|roving|chain|block-pointed")
		p      = flag.Float64("p", 0.6, "edge presence probability (bernoulli)")
		edge   = flag.Int("edge", 0, "edge index (eventual-missing, chain)")
		from   = flag.Int("from", 32, "removal time (eventual-missing)")
		tint   = flag.Int("t", 4, "interval length (t-interval)")
		period = flag.Int("period", 3, "rotation period (roving)")
		budget = flag.Int("budget", 3, "absence budget (block-pointed)")
		rounds = flag.Int("rounds", 2000, "rounds to simulate")
		seed   = flag.Uint64("seed", 42, "random seed")
		viz    = flag.Int("viz", 0, "render a space-time diagram of the first N rounds")
		list   = flag.Bool("list", false, "list registered algorithms and exit")
		save   = flag.String("save", "", "save the realized evolving graph to this JSON file")
		load   = flag.String("load", "", "replay a previously saved evolving graph instead of -dyn")
	)
	flag.Parse()
	pef.RegisterBuiltins()

	if *list {
		for _, name := range pef.Algorithms() {
			fmt.Println(name)
		}
		return nil
	}

	alg, err := pef.NewAlgorithm(*algo)
	if err != nil {
		return err
	}
	var dynamics pef.Dynamics
	if *load != "" {
		rec, err := loadGraph(*load)
		if err != nil {
			return err
		}
		if rec.Ring().Size() != *n {
			*n = rec.Ring().Size()
		}
		*dyn = "replay:" + *load
		dynamics = fsync.Oblivious{G: rec}
	} else {
		dynamics, err = buildDynamics(*dyn, *n, *p, *edge, *from, *tint, *period, *budget, *seed)
		if err != nil {
			return err
		}
	}

	vt := spec.NewVisitTracker(*n)
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    dynamics,
		Placements:  fsync.RandomPlacements(*n, *k, prng.NewSource(*seed)),
		Observers:   []fsync.Observer{vt, rec},
		RecordGraph: *viz > 0 || *save != "",
	})
	if err != nil {
		return err
	}
	sim.Run(*rounds)
	rep := vt.Report()

	if *save != "" {
		if err := saveGraph(*save, sim.RecordedGraph()); err != nil {
			return err
		}
		fmt.Printf("saved realized evolving graph to %s\n", *save)
	}

	fmt.Printf("algorithm   %s\n", alg.Name())
	fmt.Printf("ring        n=%d, k=%d, dynamics=%s, seed=%d\n", *n, *k, *dyn, *seed)
	fmt.Printf("horizon     %d rounds\n", rep.Horizon)
	fmt.Printf("covered     %d/%d nodes (cover time %d)\n", rep.Covered, rep.Nodes, rep.CoverTime)
	fmt.Printf("max gap     %d rounds (node %d)\n", rep.MaxGap, rep.WorstNode)
	fmt.Printf("visits/node %v\n", rep.Visits)
	if rep.PerpetuallyExplored(rep.Horizon / 2) {
		fmt.Println("verdict     PERPETUAL EXPLORATION (finite-horizon criterion)")
	} else {
		fmt.Println("verdict     exploration NOT sustained on this horizon")
	}

	if *viz > 0 {
		snaps := make([]fsync.Snapshot, rec.Len())
		for t := range snaps {
			snaps[t] = rec.At(t)
		}
		fmt.Println()
		fmt.Print(trace.Header(*n))
		fmt.Print(trace.SpaceTimeString(sim.RecordedGraph(), snaps, 0, *viz))
	}
	return nil
}

func buildDynamics(name string, n int, p float64, edge, from, tint, period, budget int, seed uint64) (pef.Dynamics, error) {
	switch name {
	case "static":
		return pef.Static(n), nil
	case "bernoulli":
		return pef.Bernoulli(n, p, seed), nil
	case "eventual-missing":
		return pef.EventualMissing(n, edge, from, seed), nil
	case "t-interval":
		return pef.TInterval(n, tint, seed), nil
	case "roving":
		return pef.Roving(n, period), nil
	case "chain":
		return pef.Chain(n, edge, seed), nil
	case "block-pointed":
		return pef.BlockPointed(n, budget), nil
	default:
		return nil, fmt.Errorf("unknown dynamics %q", name)
	}
}

// saveGraph writes a recorded evolving graph as JSON.
func saveGraph(path string, rec *dyngraph.Recorded) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding graph: %w", err)
	}
	if err := durable.WriteFile(path, data); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// loadGraph reads a recorded evolving graph from JSON.
func loadGraph(path string) (*dyngraph.Recorded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var rec dyngraph.Recorded
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &rec, nil
}
