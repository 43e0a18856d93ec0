package lease

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pef/internal/scenario"
	"pef/internal/telemetry"
)

// chaoticSeed scans for a chaos seed whose schedule, over the test
// campaign's blocks and faulty epochs, includes at least one kill and
// one stall — so the recovery path (expire → re-lease → fence the
// stale ack) is provably exercised, not just possible. The scan is
// deterministic: the test always runs the same schedule.
func chaoticSeed(t *testing.T, blocks int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		c := &Chaos{Seed: seed}
		var kills, stalls int
		for b := 0; b < blocks; b++ {
			for e := 0; e < 2; e++ {
				switch c.Action(b, e) {
				case ActKill:
					kills++
				case ActStall:
					stalls++
				}
			}
		}
		if kills > 0 && stalls > 0 {
			return seed
		}
	}
	t.Fatal("no chaos seed under 200 yields both a kill and a stall")
	return 0
}

// runBlock is the Run callback real workers use: execute the granted
// block as the contiguous shard of the canonical stream and encode its
// checkpoint.
func runBlock(ctx context.Context, g Grant) ([]byte, error) {
	cfg := scenario.CampaignConfig{
		Generator:  g.Campaign.Generator,
		Gen:        g.Campaign.Gen,
		Count:      g.Campaign.Count,
		Seeds:      g.Campaign.Seeds,
		ShardIndex: g.Block,
		ShardCount: g.Campaign.Blocks,
	}
	agg, err := scenario.NewAggregate(cfg)
	if err != nil {
		return nil, err
	}
	for v, serr := range scenario.StreamCampaign(ctx, cfg) {
		if serr != nil {
			return nil, serr
		}
		agg.Add(v)
	}
	return agg.Checkpoint().Encode()
}

// TestChaosFleetReproducesSingleProcessBytes is the package's hard bar:
// a 3-worker fleet under a seeded kill/stall/double-ack schedule, with
// aggressive lease timeouts, must merge to the byte-identical report of
// an uninterrupted single-process run — and every injected failure must
// be observable in the recovery accounting.
func TestChaosFleetReproducesSingleProcessBytes(t *testing.T) {
	const blocks = 6
	camp := Campaign{
		Generator: "uniform",
		Gen:       scenario.GenConfig{MaxRing: 8},
		Count:     48,
		Seeds:     []uint64{1},
		Blocks:    blocks,
	}
	seed := chaoticSeed(t, blocks)
	reg := telemetry.NewRegistry()
	coord, err := New(Config{
		Campaign:         camp,
		HeartbeatTimeout: 200 * time.Millisecond,
		Registry:         reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv, err := Serve("127.0.0.1:0", "", coord)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Work(ctx, WorkerConfig{
				URL:   "http://" + srv.Addr(),
				ID:    fmt.Sprintf("w%d", i),
				Run:   runBlock,
				Chaos: &Chaos{Seed: seed},
				Logf:  t.Logf,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("workers exited but the campaign is not done")
	}

	agg, err := coord.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var merged bytes.Buffer
	if err := agg.WriteReport(&merged); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if whole := wholeReport(t, camp); !bytes.Equal(merged.Bytes(), whole) {
		t.Fatalf("chaos fleet diverged from single-process bytes (chaos seed %d):\n--- merged ---\n%s\n--- whole ---\n%s",
			seed, merged.Bytes(), whole)
	}

	// Recovery accounting: the schedule injected kills and stalls, so
	// leases demonstrably expired — and at completion every expired lease
	// has been re-leased (the CI invariant).
	st := coord.Status()
	if st.Expired == 0 {
		t.Fatalf("chaos run recorded no expired leases: %+v", st)
	}
	if st.Expired != st.ReLeased {
		t.Fatalf("expired=%d != reLeased=%d at completion", st.Expired, st.ReLeased)
	}
	if st.Acked != blocks {
		t.Fatalf("acked=%d, want %d", st.Acked, blocks)
	}
	snap := reg.Snapshot()
	if snap.Counters["lease.expired"] != st.Expired || snap.Counters["lease.reLeased"] != st.ReLeased {
		t.Fatalf("telemetry disagrees with status: counters=%v status=%+v", snap.Counters, st)
	}
}

// TestCleanFleetCompletes pins the no-chaos path: multiple well-behaved
// workers drain the campaign with zero expiries and the same bytes.
func TestCleanFleetCompletes(t *testing.T) {
	camp := Campaign{
		Generator: "boundary",
		Gen:       scenario.GenConfig{MaxRing: 8},
		Count:     30,
		Seeds:     []uint64{1, 2},
		Blocks:    5,
	}
	coord, err := New(Config{Campaign: camp, HeartbeatTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv, err := Serve("127.0.0.1:0", "", coord)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Work(ctx, WorkerConfig{
				URL: "http://" + srv.Addr(),
				ID:  fmt.Sprintf("clean%d", i),
				Run: runBlock,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	agg, err := coord.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var merged bytes.Buffer
	if err := agg.WriteReport(&merged); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if whole := wholeReport(t, camp); !bytes.Equal(merged.Bytes(), whole) {
		t.Fatal("clean fleet diverged from single-process bytes")
	}
	if st := coord.Status(); st.Expired != 0 || st.ReLeased != 0 {
		t.Fatalf("clean run recorded recoveries: %+v", st)
	}
}

// TestWorkerReportsCampaignFailure pins the loud-failure path: when a
// block exhausts its lease epochs the fleet learns the campaign failed
// and exits non-zero instead of spinning.
func TestWorkerReportsCampaignFailure(t *testing.T) {
	clock := newFakeClock()
	coord, err := New(Config{
		Campaign: Campaign{
			Generator: "uniform",
			Count:     8,
			Seeds:     []uint64{1},
			Blocks:    2,
		},
		HeartbeatTimeout: time.Second,
		MaxEpochs:        1,
		Now:              clock.Now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Burn block 0's single allowed epoch by leasing and going silent:
	// the next lease attempt latches the campaign failure.
	if resp := coord.Lease("earlier"); resp.Grant == nil {
		t.Fatalf("seed lease: %+v", resp)
	}
	clock.Advance(2 * time.Second)
	if resp := coord.Lease("earlier"); resp.Failed == "" {
		t.Fatalf("exhausted lease: got %+v, want Failed", resp)
	}

	srv, err := Serve("127.0.0.1:0", "", coord)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	werr := Work(ctx, WorkerConfig{
		URL: "http://" + srv.Addr(),
		ID:  "latecomer",
		Run: runBlock,
	})
	if werr == nil || !strings.Contains(werr.Error(), "campaign failed") {
		t.Fatalf("worker against failed campaign: %v, want campaign-failed error", werr)
	}
}
