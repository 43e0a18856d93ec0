package scenario

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func campaignCfg(workers int) CampaignConfig {
	return CampaignConfig{
		Generator: "boundary",
		Gen:       GenConfig{MaxRing: 8},
		Count:     30,
		Seeds:     []uint64{1, 2},
		Workers:   workers,
	}
}

// renderCampaign returns the campaign's two report renderings.
func renderCampaign(t *testing.T, c *Campaign) (string, string) {
	t.Helper()
	var rep, js bytes.Buffer
	if err := c.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return rep.String(), js.String()
}

// TestStreamCampaignMatchesRunCampaign is the acceptance criterion of the
// streaming redesign: the streamed path — verdicts folded online into an
// Aggregate — must produce byte-identical WriteReport/WriteJSON output to
// the collected RunCampaign path, for any worker count.
func TestStreamCampaignMatchesRunCampaign(t *testing.T) {
	collected, err := RunCampaign(context.Background(), campaignCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantJSON := renderCampaign(t, collected)

	for _, workers := range []int{1, 3, 8} {
		cfg := campaignCfg(workers)
		agg, err := NewAggregate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for v, serr := range StreamCampaign(context.Background(), cfg) {
			if serr != nil {
				t.Fatalf("workers=%d: stream error: %v", workers, serr)
			}
			agg.Add(v)
			ids = append(ids, v.ID)
		}
		if len(ids) != len(collected.Verdicts) {
			t.Fatalf("workers=%d: streamed %d verdicts, collected %d", workers, len(ids), len(collected.Verdicts))
		}
		for i, v := range collected.Verdicts {
			if v.ID != ids[i] {
				t.Fatalf("workers=%d: canonical order diverges at %d: %s vs %s", workers, i, ids[i], v.ID)
			}
		}
		var rep, js bytes.Buffer
		if err := agg.WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		if err := agg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if rep.String() != wantRep {
			t.Fatalf("workers=%d: streamed report differs from collected:\n%s\n--- want ---\n%s", workers, rep.String(), wantRep)
		}
		if js.String() != wantJSON {
			t.Fatalf("workers=%d: streamed JSON differs from collected", workers)
		}
	}
}

// TestCheckpointResumeReproducesUninterruptedRun kills a campaign after N
// verdicts, checkpoints it, resumes from the decoded checkpoint, and
// requires the final reports to be byte-identical to the uninterrupted
// run — for several cut points including the seed boundary.
func TestCheckpointResumeReproducesUninterruptedRun(t *testing.T) {
	full, err := RunCampaign(context.Background(), campaignCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantJSON := renderCampaign(t, full)
	total := len(full.Verdicts)

	for _, cut := range []int{0, 7, 30, total - 1} {
		cfg := campaignCfg(2)
		agg, err := NewAggregate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for v, serr := range StreamCampaign(context.Background(), cfg) {
			if n == cut {
				break // the "kill": nothing after this round is seen
			}
			if serr != nil {
				t.Fatal(serr)
			}
			agg.Add(v)
			n++
		}
		data, err := agg.Checkpoint().Encode()
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		ckpt, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if ckpt.Done != cut {
			t.Fatalf("cut=%d: checkpoint Done=%d", cut, ckpt.Done)
		}

		resumed, err := RunCampaign(context.Background(), CampaignConfig{Workers: 3, Resume: ckpt})
		if err != nil {
			t.Fatalf("cut=%d: resume: %v", cut, err)
		}
		if len(resumed.Verdicts) != total-cut {
			t.Fatalf("cut=%d: resumed ran %d scenarios, want %d", cut, len(resumed.Verdicts), total-cut)
		}
		gotRep, gotJSON := renderCampaign(t, resumed)
		if gotRep != wantRep {
			t.Fatalf("cut=%d: resumed report differs from uninterrupted run:\n%s\n--- want ---\n%s", cut, gotRep, wantRep)
		}
		if gotJSON != wantJSON {
			t.Fatalf("cut=%d: resumed JSON differs from uninterrupted run", cut)
		}
		if resumed.Total() != total || resumed.Checkpoint().Done != total {
			t.Fatalf("cut=%d: resumed totals wrong: %d", cut, resumed.Total())
		}
	}
}

// TestResumeRejectsConflictingConfig pins the safety contract: a resumed
// campaign cannot silently continue under different parameters.
func TestResumeRejectsConflictingConfig(t *testing.T) {
	cfg := campaignCfg(1)
	agg, err := NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := agg.Checkpoint()
	for name, bad := range map[string]CampaignConfig{
		"generator": {Generator: "uniform", Resume: ckpt},
		"count":     {Count: 99, Resume: ckpt},
		"seeds":     {Seeds: []uint64{9}, Resume: ckpt},
		"gen":       {Gen: GenConfig{MaxRing: 14}, Resume: ckpt},
	} {
		if _, err := RunCampaign(context.Background(), bad); err == nil {
			t.Errorf("conflicting %s accepted on resume", name)
		}
	}
	// Matching explicit values are fine.
	if _, err := RunCampaign(context.Background(), CampaignConfig{Generator: "boundary", Resume: ckpt}); err != nil {
		t.Errorf("matching generator rejected: %v", err)
	}
}

// TestCheckpointRejectsCorruption checks the decode-side validation.
func TestCheckpointRejectsCorruption(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte(`{"version":99}`)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := DecodeCheckpoint([]byte(`{"version":1,"generator":"uniform","gen":{},"count":2,"seeds":[1],"done":9,"ok":0}`)); err == nil {
		t.Error("done beyond campaign accepted")
	}
	if _, err := DecodeCheckpoint([]byte(`{"version":1,"generator":"uniform","gen":{},"count":5,"seeds":[1],"done":2,"ok":1,"families":[{"family":"static","runs":1,"ok":1}]}`)); err == nil {
		t.Error("family runs disagreeing with done accepted")
	}
}

// TestAggregateMergePartition checks the merge-based claim: any in-order
// partition of the verdict stream, aggregated separately and merged,
// reproduces the whole-stream aggregate's reports.
func TestAggregateMergePartition(t *testing.T) {
	cfg := campaignCfg(1)
	c, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantJSON := renderCampaign(t, c)

	parts := []*Aggregate{}
	for i := 0; i < 3; i++ {
		a, err := NewAggregate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, a)
	}
	for i, v := range c.Verdicts {
		// Contiguous thirds: merge preserves in-order concatenation.
		parts[i*3/len(c.Verdicts)].Add(v)
	}
	merged, err := NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	var rep, js bytes.Buffer
	if err := merged.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if rep.String() != wantRep || js.String() != wantJSON {
		t.Fatal("merged partition reports differ from whole-stream aggregation")
	}
	if err := merged.Merge(parts[0]); err != nil {
		t.Fatal(err)
	}
	other, _ := NewAggregate(CampaignConfig{Generator: "uniform"})
	if err := merged.Merge(other); err == nil {
		t.Fatal("merge across different campaigns accepted")
	}
}

// TestStreamCampaignCancellationYieldsIdentifiedTail cancels mid-stream
// and checks every remaining scenario still arrives, in order, with its
// identity and the context error.
func TestStreamCampaignCancellationYieldsIdentifiedTail(t *testing.T) {
	cfg := campaignCfg(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var all []Verdict
	cancelledAt := -1
	i := 0
	for v, serr := range StreamCampaign(ctx, cfg) {
		all = append(all, v)
		if serr != nil && cancelledAt == -1 {
			cancelledAt = i
		}
		if i == 4 {
			cancel()
		}
		i++
	}
	if len(all) != 60 {
		t.Fatalf("yielded %d of 60 scenarios", len(all))
	}
	if cancelledAt == -1 {
		t.Skip("campaign finished before cancellation propagated") // tiny machines
	}
	full, err := RunCampaign(context.Background(), campaignCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range all {
		if v.ID != full.Verdicts[j].ID {
			t.Fatalf("identity diverges at %d: %s vs %s", j, v.ID, full.Verdicts[j].ID)
		}
	}
	tail := all[cancelledAt]
	if tail.Err == "" || tail.Outcome != "error" {
		t.Fatalf("cancelled verdict not marked: %+v", tail)
	}
}

// TestStreamSpecsCancellationMidWindow cancels while one packing
// window's units are still queued: the stream must still yield exactly
// one verdict per spec, in order. The executed specs form a prefix with
// their real verdicts (a lane group interrupted mid-run reports
// "cancelled"); every later spec carries its identity and ctx.Err().
func TestStreamSpecsCancellationMidWindow(t *testing.T) {
	specs, err := Generate("uniform", GenConfig{MaxRing: 8}, 9, 200)
	if err != nil {
		t.Fatal(err)
	}
	want := RunBlock(context.Background(), specs, RunOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	i, cancelledAt := 0, -1
	for v, serr := range StreamSpecs(ctx, CampaignConfig{Workers: 1, LaneWidth: 1024}, specs) {
		cancel() // after the first verdict: the window's other units are queued
		if i >= len(specs) {
			t.Fatal("more verdicts than specs")
		}
		if v.ID != specs[i].ID() {
			t.Fatalf("verdict %d is %s, want %s", i, v.ID, specs[i].ID())
		}
		switch {
		case serr != nil:
			if serr != context.Canceled {
				t.Fatalf("verdict %d: stream error %v, want context.Canceled", i, serr)
			}
			if cancelledAt == -1 {
				cancelledAt = i
			}
			if v.Outcome != "error" || !strings.Contains(v.Err, "cancelled before running") {
				t.Fatalf("unrun verdict %d not marked: %+v", i, v)
			}
		case cancelledAt != -1:
			t.Fatalf("verdict %d ran after unrun verdict %d: the executed specs are not a prefix", i, cancelledAt)
		case v.Outcome != "cancelled" && !reflect.DeepEqual(v, want[i]):
			t.Fatalf("executed verdict %d diverges from RunBlock:\n%+v\n%+v", i, v, want[i])
		}
		i++
	}
	if i != len(specs) {
		t.Fatalf("yielded %d of %d verdicts", i, len(specs))
	}
	if cancelledAt == -1 {
		t.Skip("stream finished before cancellation propagated") // tiny machines
	}
}

// stallCache is a mapCache whose Store blocks on one spec until release
// closes: the unit running that spec cannot retire, so nothing after it
// can be yielded.
type stallCache struct {
	*mapCache
	stallOn string
	release chan struct{}
}

func (c stallCache) Store(s Spec, v Verdict) {
	if s.ID() == c.stallOn {
		<-c.release
	}
	c.mapCache.Store(s, v)
}

// TestStreamSpecsWindowBoundsPlanning pins the memory bound of unit
// dispatch: while the head unit stalls and the other worker keeps
// running later units, the dispatcher plans at most 8×workers packing
// windows, however many units they split into. The cache sees every
// planned spec, since windows are looked up while they are planned.
func TestStreamSpecsWindowBoundsPlanning(t *testing.T) {
	const workers, width = 2, 2
	specs, err := Generate("uniform", GenConfig{MaxRing: 8}, 9, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := stallCache{mapCache: newMapCache(), stallOn: specs[0].ID(), release: make(chan struct{})}
	looked := func() int {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return sc.lookups
	}
	yielded := make(chan int)
	go func() {
		n := 0
		for _, serr := range StreamSpecs(context.Background(), CampaignConfig{Workers: workers, LaneWidth: width, Cache: sc}, specs) {
			if serr != nil {
				t.Error(serr)
			}
			n++
		}
		yielded <- n
	}()
	// The head unit holds its window's permit, so planning stops once
	// every permit is taken. Wait for that, then give an unbounded
	// dispatcher the chance to run further.
	bound := campaignWindow(workers) * width
	for looked() < bound {
		runtime.Gosched()
	}
	for range 1000 {
		runtime.Gosched()
	}
	if got := looked(); got > bound {
		t.Errorf("planned %d specs ahead of a stalled head unit, want at most %d", got, bound)
	}
	close(sc.release)
	if n := <-yielded; n != len(specs) {
		t.Fatalf("yielded %d of %d verdicts", n, len(specs))
	}
}

// TestRunCampaignEchoesResolvedConfig pins the Campaign echo fields the
// facade and CLI rely on.
func TestRunCampaignEchoesResolvedConfig(t *testing.T) {
	c, err := RunCampaign(context.Background(), CampaignConfig{Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Generator != "uniform" || !reflect.DeepEqual(c.Seeds, []uint64{1}) || c.Count != 2 {
		t.Fatalf("resolved echo wrong: %+v", c)
	}
	if c.Gen == (GenConfig{}) {
		t.Fatal("campaign did not echo the defaulted generator bounds")
	}
	if _, err := RunCampaign(context.Background(), CampaignConfig{Generator: "nope"}); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

// TestCheckpointSnapshotIsImmutable is the regression test for the
// mid-stream checkpointing bug: a checkpoint taken at cut N must stay
// internally consistent (and encodable) while the aggregate keeps
// folding verdicts past it.
func TestCheckpointSnapshotIsImmutable(t *testing.T) {
	cfg := campaignCfg(1)
	agg, err := NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mid *Checkpoint
	n := 0
	for v, serr := range StreamCampaign(context.Background(), cfg) {
		if serr != nil {
			t.Fatal(serr)
		}
		agg.Add(v)
		if n++; n == 5 {
			mid = agg.Checkpoint()
		}
	}
	if mid.Done != 5 {
		t.Fatalf("mid-stream checkpoint Done=%d", mid.Done)
	}
	runs := 0
	for _, fs := range mid.Families {
		runs += fs.Runs
	}
	if runs != 5 {
		t.Fatalf("later Add mutated the checkpoint snapshot: family runs %d", runs)
	}
	data, err := mid.Encode()
	if err != nil {
		t.Fatalf("mid-stream checkpoint no longer encodes: %v", err)
	}
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatal(err)
	}
}
