package scenario

import (
	"bytes"
	"context"
	"flag"
	"os"
	"reflect"
	"testing"

	"pef/internal/fsync"
)

var updateLockstepGoldens = flag.Bool("update-lockstep-goldens", false,
	"regenerate testdata/lockstep_registered.* from the scalar path")

// TestRunBlockMatchesRunWith is the engine-equivalence suite: for every
// stock generator plus the registered generator over all explorable
// families, block verdicts must equal per-spec scalar verdicts field for
// field, at every block width (1 disables lane sharing entirely, 7 forces
// partial words and mixed retirement, 64 is the full word).
func TestRunBlockMatchesRunWith(t *testing.T) {
	ctx := context.Background()
	for _, gen := range []string{"uniform", "boundary", "markov", "adversarial", "registered"} {
		specs, err := Generate(gen, GenConfig{}, 5, 48)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		want := make([]Verdict, len(specs))
		for i, s := range specs {
			want[i] = runScalar(ctx, s, RunOptions{})
		}
		for _, width := range []int{1, 7, 64} {
			for start := 0; start < len(specs); start += width {
				end := min(start+width, len(specs))
				got := RunBlock(ctx, specs[start:end], RunOptions{})
				for j := range got {
					if !reflect.DeepEqual(got[j], want[start+j]) {
						t.Fatalf("%s width %d spec %d (%s):\nlockstep %+v\nscalar   %+v",
							gen, width, start+j, specs[start+j].ID(), got[j], want[start+j])
					}
				}
			}
		}
	}
}

// TestCampaignLockstepScalarByteIdentity pins the campaign-level
// guarantee: reports and JSON documents are byte-identical between the
// scalar path (DisableLockstep) and the lane engine, for any worker count
// and lane width — and both match the committed golden generated from
// the scalar path over the full explorable-family pool.
func TestCampaignLockstepScalarByteIdentity(t *testing.T) {
	base := CampaignConfig{Generator: "registered", Count: 40, Seeds: []uint64{3, 4}}
	render := func(cfg CampaignConfig) (string, string) {
		c, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatalf("campaign %+v: %v", cfg, err)
		}
		var rep, js bytes.Buffer
		if err := c.WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return rep.String(), js.String()
	}

	scalar := base
	scalar.DisableLockstep = true
	scalar.Workers = 1
	wantRep, wantJSON := render(scalar)

	if *updateLockstepGoldens {
		if err := os.WriteFile("testdata/lockstep_registered.txt", []byte(wantRep), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/lockstep_registered.json", []byte(wantJSON), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	goldRep, err := os.ReadFile("testdata/lockstep_registered.txt")
	if err != nil {
		t.Fatal(err)
	}
	goldJSON, err := os.ReadFile("testdata/lockstep_registered.json")
	if err != nil {
		t.Fatal(err)
	}
	if wantRep != string(goldRep) {
		t.Error("scalar report differs from committed golden")
	}
	if wantJSON != string(goldJSON) {
		t.Error("scalar JSON differs from committed golden")
	}

	for _, workers := range []int{1, 4} {
		for _, width := range []int{1, 7, 64} {
			cfg := base
			cfg.Workers = workers
			cfg.laneWidth = width
			rep, js := render(cfg)
			if rep != wantRep {
				t.Errorf("workers=%d width=%d: lockstep report differs from scalar", workers, width)
			}
			if js != wantJSON {
				t.Errorf("workers=%d width=%d: lockstep JSON differs from scalar", workers, width)
			}
		}
	}
}

// TestRunBlockObserversForceScalar checks the conservative eligibility
// gate: any imperative override routes through the scalar oracle (whose
// observers see real snapshots), never the lane engine.
func TestRunBlockObserversForceScalar(t *testing.T) {
	specs, err := Generate("uniform", GenConfig{}, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	obs := countRounds{&rounds}
	tel := NewTelemetry()
	got := RunBlock(context.Background(), specs, RunOptions{Observers: []fsync.Observer{obs}, Telemetry: tel})
	for i, s := range specs {
		want := runScalar(context.Background(), s, RunOptions{Observers: []fsync.Observer{obs}})
		// The observer counter differs between the two passes; compare the
		// stable fields.
		want.Err = got[i].Err
		if got[i].ID != s.ID() || got[i].OK != want.OK || got[i].Outcome != want.Outcome {
			t.Fatalf("spec %d: override verdict %+v, want %+v", i, got[i], want)
		}
	}
	if rounds == 0 {
		t.Fatal("observers were dropped: the block must have run scalar with observers attached")
	}
	// The telemetry bundle saw the routing decision: every spec left the
	// lockstep path, attributed to the observer override.
	snap := tel.Snapshot()
	if got := snap.Counters["engine.lockstepSpecs"]; got != 0 {
		t.Fatalf("engine.lockstepSpecs = %d with observers attached, want 0", got)
	}
	if got := snap.Counters["engine.skip.overrides"]; got != int64(len(specs)) {
		t.Fatalf("engine.skip.overrides = %d, want %d", got, len(specs))
	}
	if got := snap.Counters["engine.scalarSpecs"]; got != int64(len(specs)) {
		t.Fatalf("engine.scalarSpecs = %d, want %d", got, len(specs))
	}
}

// TestRunBlockTelemetryStaysLockstep is the differential counterpart of
// TestRunBlockObserversForceScalar: attaching Telemetry — unlike
// attaching observers — must NOT force a block off the lockstep path,
// and must not change a single verdict field.
func TestRunBlockTelemetryStaysLockstep(t *testing.T) {
	specs, err := Generate("uniform", GenConfig{}, 21, 64)
	if err != nil {
		t.Fatal(err)
	}
	plain := RunBlock(context.Background(), specs, RunOptions{})
	tel := NewTelemetry()
	got := RunBlock(context.Background(), specs, RunOptions{Telemetry: tel})
	for i := range specs {
		if got[i] != plain[i] {
			t.Fatalf("spec %d: telemetry changed the verdict:\n got %+v\nwant %+v", i, got[i], plain[i])
		}
	}
	snap := tel.Snapshot()
	if got := snap.Counters["engine.lockstepSpecs"]; got == 0 {
		t.Fatalf("engine.lockstepSpecs = 0: telemetry forced the block off the lockstep path (counters: %v)", snap.Counters)
	}
	if got := snap.Counters["engine.skip.overrides"]; got != 0 {
		t.Fatalf("engine.skip.overrides = %d with no overrides attached, want 0", got)
	}
	if lock, scal := snap.Counters["engine.lockstepSpecs"], snap.Counters["engine.scalarSpecs"]; lock+scal != int64(len(specs)) {
		t.Fatalf("lockstep(%d)+scalar(%d) specs != %d routed", lock, scal, len(specs))
	}
	if snap.Counters["sim.lockstep.rounds"] == 0 {
		t.Fatal("lane engine ran but recorded no lockstep rounds")
	}
}

// countRounds counts observed rounds; its presence in RunOptions must
// force the scalar engine.
type countRounds struct{ rounds *int }

func (c countRounds) ObserveRound(fsync.RoundEvent) { *c.rounds++ }
