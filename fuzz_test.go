package pef_test

import (
	"context"
	"testing"

	"pef"
)

// FuzzScenario bridges the coverage-guided search to go test -fuzz: the
// seed corpus is a search run's near-violation corpus — the specs that
// finished closest to the theorem boundary — so the fuzzer starts its
// mutations exactly where the margins are thinnest. Any input that
// decodes as a valid scenario replays through the oracle under the
// paper's own derived expectation; a violation fails with a
// pef.Minimize minimal reproducer so the counterexample is immediately
// actionable. Run it with:
//
//	go test -fuzz FuzzScenario -fuzztime 30s
func FuzzScenario(f *testing.F) {
	res, err := pef.Search(context.Background(), pef.SearchConfig{
		Seed: 11, Generations: 3, GenerationSize: 32, Warmup: 1, CorpusSize: 16,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range res.Corpus {
		data, err := e.Spec.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := pef.DecodeScenario(data)
		if err != nil {
			t.Skip()
		}
		// Keep individual executions cheap; the search corpus stays well
		// inside these bounds, so only fuzzer-invented giants are skipped.
		if s.Ring > 64 || s.Horizon > 1<<14 {
			t.Skip()
		}
		// Let the oracle derive the paper's prediction: a failure is then
		// a genuine theorem-boundary violation, not a mutated claim.
		s.Expect = ""
		v, _ := pef.Run(context.Background(), s)
		if v.Err != "" {
			t.Fatalf("execution error on valid spec %s: %s", v.ID, v.Err)
		}
		if !v.OK {
			minimal := pef.Minimize(v.Spec)
			t.Fatalf("violation: %s (%s); minimal reproducer: %s",
				v.ID, v.Violation, minimal.ID())
		}
	})
}
