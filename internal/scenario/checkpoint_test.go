package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// shardCheckpoint runs shard i of n for cfg's campaign to completion and
// returns its checkpoint.
func shardCheckpoint(t testing.TB, base CampaignConfig, i, n int) *Checkpoint {
	t.Helper()
	cfg := base
	cfg.ShardIndex, cfg.ShardCount = i, n
	agg, err := NewAggregate(cfg)
	if err != nil {
		t.Fatalf("NewAggregate(shard %d/%d): %v", i, n, err)
	}
	for v, serr := range StreamCampaign(context.Background(), cfg) {
		if serr != nil {
			t.Fatalf("StreamCampaign(shard %d/%d): %v", i, n, serr)
		}
		agg.Add(v)
	}
	return agg.Checkpoint()
}

// TestMergeCheckpointsFailurePaths pins the merge guards one by one:
// every way a set of block checkpoints can fail to tile the campaign —
// gaps, duplicates, genuine overlaps, foreign campaigns — must be a
// loud error, never a silently wrong aggregate.
func TestMergeCheckpointsFailurePaths(t *testing.T) {
	base := CampaignConfig{Generator: "uniform", Gen: GenConfig{MaxRing: 8}, Count: 24, Seeds: []uint64{3}}
	thirds := make([]*Checkpoint, 3)
	for i := range thirds {
		thirds[i] = shardCheckpoint(t, base, i, 3)
	}

	if _, err := MergeCheckpoints(); err == nil {
		t.Error("empty merge accepted")
	}
	// Gapped region: [0, 8) + [16, 24) leaves the middle third missing.
	if _, err := MergeCheckpoints(thirds[0], thirds[2]); err == nil || !strings.Contains(err.Error(), "gap or overlap") {
		t.Errorf("gapped merge: %v, want gap/overlap rejection", err)
	}
	// Missing first block: the merge cannot even anchor at 0.
	if _, err := MergeCheckpoints(thirds[1], thirds[2]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("merge without block 0: %v, want missing-shard rejection", err)
	}
	// Duplicate block: the same region delivered twice.
	if _, err := MergeCheckpoints(thirds[0], thirds[1], thirds[1], thirds[2]); err == nil {
		t.Error("duplicate block accepted")
	}
	// Genuine overlap: halves [0, 12), [12, 24) interleaved with the
	// middle third [8, 16) — distinct blocks, overlapping coverage.
	halves := []*Checkpoint{shardCheckpoint(t, base, 0, 2), shardCheckpoint(t, base, 1, 2)}
	if _, err := MergeCheckpoints(halves[0], thirds[1], halves[1]); err == nil || !strings.Contains(err.Error(), "gap or overlap") {
		t.Errorf("overlapping blocks: %v, want gap/overlap rejection", err)
	}
	// Mixed campaign identity: block 1 computed under a different seed
	// tiles the region perfectly but describes another campaign.
	foreign := base
	foreign.Seeds = []uint64{99}
	alien := shardCheckpoint(t, foreign, 1, 3)
	if _, err := MergeCheckpoints(thirds[0], alien, thirds[2]); err == nil || !strings.Contains(err.Error(), "different campaigns") {
		t.Errorf("mixed-identity merge: %v, want campaign-identity rejection", err)
	}
	// The happy path still holds after all that rejection.
	if _, err := MergeCheckpoints(thirds[2], thirds[0], thirds[1]); err != nil {
		t.Errorf("clean merge: %v", err)
	}
}

// TestCheckpointChecksumRoundTrip pins the integrity envelope: Encode
// stamps a content checksum, DecodeCheckpoint verifies it, and a
// checkpoint from before the field (no checksum) still decodes.
func TestCheckpointChecksumRoundTrip(t *testing.T) {
	base := CampaignConfig{Generator: "uniform", Gen: GenConfig{MaxRing: 8}, Count: 10, Seeds: []uint64{1}}
	ckpt := shardCheckpoint(t, base, 0, 1)
	data, err := ckpt.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Contains(data, []byte(`"checksum"`)) {
		t.Fatal("Encode omitted the content checksum")
	}
	back, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if back.Done != ckpt.Done || back.OK != ckpt.OK {
		t.Fatalf("round trip changed the aggregate: %d/%d vs %d/%d", back.Done, back.OK, ckpt.Done, ckpt.OK)
	}

	// Legacy checkpoints carry no checksum and skip the check.
	legacy := *ckpt
	legacy.Checksum = ""
	legacyData, err := json.MarshalIndent(&legacy, "", "  ")
	if err != nil {
		t.Fatalf("marshal legacy: %v", err)
	}
	if _, err := DecodeCheckpoint(legacyData); err != nil {
		t.Fatalf("legacy checkpoint without checksum rejected: %v", err)
	}
}

// TestCheckpointCorruptionDetected flips content bytes and truncates the
// file: both must fail loudly instead of resuming a diverged campaign.
func TestCheckpointCorruptionDetected(t *testing.T) {
	base := CampaignConfig{Generator: "uniform", Gen: GenConfig{MaxRing: 8}, Count: 10, Seeds: []uint64{1}}
	data, err := shardCheckpoint(t, base, 0, 1).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// A bit-flip that stays valid JSON and sails past the structural
	// validator (nothing cross-checks the generator name): only the
	// content checksum can catch it.
	corrupt := bytes.Replace(data, []byte(`"generator": "uniform"`), []byte(`"generator": "uniforn"`), 1)
	if bytes.Equal(corrupt, data) {
		t.Fatal("corruption did not land; fixture drifted")
	}
	if _, err := DecodeCheckpoint(corrupt); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bit-flipped checkpoint: %v, want checksum mismatch", err)
	}
	// Truncation: half a file is not a checkpoint.
	if _, err := DecodeCheckpoint(data[:len(data)/2]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestCampaignShapeOverflowRejected feeds campaign shapes whose scenario
// total count·seeds overflows int. Unchecked, 2^62 scenarios × 4 seeds
// wraps to a 0-scenario campaign that decodes, merges and resolves as
// complete; every entry point must refuse it instead.
func TestCampaignShapeOverflowRejected(t *testing.T) {
	const wrapsToZero = `{"version":1,"generator":"uniform","gen":{},"count":4611686018427387904,"seeds":[1,2,3,4],"done":0,"ok":0}`
	for _, tc := range []struct {
		name  string
		count int
		seeds []uint64
	}{
		{"wraps to zero", 1 << 62, []uint64{1, 2, 3, 4}},
		{"wraps to small", 1<<62 + 1, []uint64{1, 2, 3, 4}},
		{"max count, two seeds", math.MaxInt, []uint64{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := &Checkpoint{Version: Version, Generator: "uniform", Count: tc.count, Seeds: tc.seeds}
			data, err := json.Marshal(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(data); err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("DecodeCheckpoint: %v, want an overflow rejection", err)
			}
			if _, err := MergeCheckpoints(ckpt); err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("MergeCheckpoints: %v, want an overflow rejection", err)
			}
			if _, err := ckpt.Encode(); err == nil {
				t.Error("Encode accepted an overflowing shape")
			}
			cfg := CampaignConfig{Count: tc.count, Seeds: tc.seeds}
			if _, err := NewAggregate(cfg); err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("NewAggregate: %v, want an overflow rejection", err)
			}
			if _, err := RunCampaign(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("RunCampaign: %v, want an overflow rejection", err)
			}
		})
	}
	if _, err := DecodeCheckpoint([]byte(wrapsToZero)); err == nil {
		t.Error("the wrapping checkpoint file decoded as a complete campaign")
	}
}
