package scenario

import (
	"context"
	"iter"
	"reflect"
	"strings"
	"testing"

	"pef/internal/prng"
)

// Equal-weight FamilyWeights must be draw-for-draw identical to the
// unweighted Families pool: pickWeighted spends exactly one Intn either
// way, so biasing the pool never shifts the sampling stream.
func TestFamilyWeightsUniformBitCompatible(t *testing.T) {
	plain, err := Generate("registered", GenConfig{Families: "bernoulli,periodic"}, 42, 50)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Generate("registered", GenConfig{FamilyWeights: "bernoulli=1,periodic=1"}, 42, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != weighted[i] {
			t.Fatalf("spec %d diverges: %s vs %s", i, plain[i].ID(), weighted[i].ID())
		}
	}
}

// A heavily skewed weighting must actually skew the family mix, while
// still only drawing registered explorable families.
func TestFamilyWeightsSkew(t *testing.T) {
	specs, err := Generate("registered", GenConfig{FamilyWeights: "bernoulli=99,periodic=1"}, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, s := range specs {
		count[s.Family]++
	}
	if len(count) > 2 {
		t.Fatalf("weighted pool leaked families: %v", count)
	}
	if count["bernoulli"] < 150 {
		t.Fatalf("99:1 weighting produced only %d/200 bernoulli specs", count["bernoulli"])
	}
}

// FamilyWeights validation must reject malformed lists loudly.
func TestFamilyWeightsValidation(t *testing.T) {
	for _, bad := range []struct{ weights, wantErr string }{
		{"bernoulli", "family=weight"},
		{"bernoulli=0", "weight"},
		{"bernoulli=-2", "weight"},
		{"bernoulli=1000001", "weight"},
		{"bernoulli=x", "weight"},
		{"nosuch=1", "explorable"},
		{"confine-one=1", "explorable"},
		{"bernoulli=1,bernoulli=2", "duplicate"},
	} {
		_, err := Generate("registered", GenConfig{FamilyWeights: bad.weights}, 1, 1)
		if err == nil {
			t.Errorf("FamilyWeights %q accepted", bad.weights)
			continue
		}
		if !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("FamilyWeights %q: error %q lacks %q", bad.weights, err, bad.wantErr)
		}
	}
	if _, err := Generate("registered", GenConfig{Families: "bernoulli", FamilyWeights: "bernoulli=1"}, 1, 1); err == nil {
		t.Error("Families and FamilyWeights accepted together")
	}
}

// StreamSpecs and StreamCampaign must yield one verdict per spec, in
// input order, equal field for field to both RunBlock over the whole
// list and the scalar oracle — for any worker count, lane-packing window
// and cache state. The windows split into lane groups and scalar specs
// that run as separate pool jobs, so this is the differential check of
// unit dispatch and reordering; the warm cache serves every third spec,
// so hits and runs interleave inside a window.
func TestStreamSpecsOrderAndIdentity(t *testing.T) {
	ctx := context.Background()
	gcfg := GenConfig{MaxRing: 8}
	specs, err := Generate("uniform", gcfg, 9, 150)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Verdict, len(specs))
	for i, s := range specs {
		want[i] = runScalar(ctx, s, RunOptions{})
	}
	for i, v := range RunBlock(ctx, specs, RunOptions{}) {
		if !reflect.DeepEqual(v, want[i]) {
			t.Fatalf("RunBlock verdict %d diverges from the scalar oracle:\n%+v\n%+v", i, v, want[i])
		}
	}
	streams := map[string]func(CampaignConfig) iter.Seq2[Verdict, error]{
		"StreamSpecs": func(cfg CampaignConfig) iter.Seq2[Verdict, error] {
			return StreamSpecs(ctx, cfg, specs)
		},
		"StreamCampaign": func(cfg CampaignConfig) iter.Seq2[Verdict, error] {
			cfg.Generator, cfg.Gen, cfg.Count, cfg.Seeds = "uniform", gcfg, len(specs), []uint64{9}
			return StreamCampaign(ctx, cfg)
		},
	}
	for name, stream := range streams {
		for _, workers := range []int{1, 2, 8} {
			for _, width := range []int{64, 1024} {
				for _, cached := range []bool{false, true} {
					cfg := CampaignConfig{Workers: workers, LaneWidth: width}
					var mc *mapCache
					if cached {
						mc = newMapCache()
						for i := 0; i < len(specs); i += 3 {
							mc.Store(specs[i], want[i])
						}
						cfg.Cache = mc
					}
					i := 0
					for v, serr := range stream(cfg) {
						if serr != nil {
							t.Fatal(serr)
						}
						if i >= len(specs) {
							t.Fatalf("%s: more verdicts than specs", name)
						}
						if !reflect.DeepEqual(v, want[i]) {
							t.Fatalf("%s workers=%d width=%d cached=%v verdict %d diverges:\n%+v\n%+v",
								name, workers, width, cached, i, v, want[i])
						}
						i++
					}
					if i != len(specs) {
						t.Fatalf("%s workers=%d width=%d cached=%v yielded %d of %d verdicts",
							name, workers, width, cached, i, len(specs))
					}
					if mc != nil && (mc.hits == 0 || mc.storedWithErr != 0) {
						t.Fatalf("%s workers=%d width=%d: %d cache hits, %d error verdicts stored",
							name, workers, width, mc.hits, mc.storedWithErr)
					}
				}
			}
		}
	}
}

// SampleFamilySpec must reject non-explorable families and be a pure
// function of the source state.
func TestSampleFamilySpec(t *testing.T) {
	r := DefaultRegistry()
	if _, err := r.SampleFamilySpec(GenConfig{}, FamilyConfineOne, prng.NewSource(1)); err == nil {
		t.Error("confinement adversary accepted as explorable sample")
	}
	if _, err := r.SampleFamilySpec(GenConfig{}, "nosuch", prng.NewSource(1)); err == nil {
		t.Error("unknown family accepted")
	}
	a, err := r.SampleFamilySpec(GenConfig{}, "bernoulli", prng.NewSource(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SampleFamilySpec(GenConfig{}, "bernoulli", prng.NewSource(77))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equal sources sampled different specs: %s vs %s", a.ID(), b.ID())
	}
	if a.Expect != ExpectExplore {
		t.Fatalf("explorable sample carries expectation %q", a.Expect)
	}
	if err := r.ValidateSpec(a); err != nil {
		t.Fatal(err)
	}
}

// Margins must reproduce exactly the headrooms campaign aggregation
// records, and flag violations as negative.
func TestMargins(t *testing.T) {
	r := DefaultRegistry()
	v := Verdict{
		Spec:      Spec{Family: "bernoulli", Horizon: 1000},
		Expect:    ExpectExplore,
		Outcome:   "explored",
		CoverTime: 400,
		MaxGap:    100,
	}
	ms := r.Margins(v)
	if len(ms) != 2 {
		t.Fatalf("want 2 margins, got %+v", ms)
	}
	if ms[0].Metric != "coverSlack" || ms[0].Value != 600 || ms[0].Rel != 600 {
		t.Errorf("coverSlack margin %+v", ms[0])
	}
	if ms[1].Metric != "gapHeadroom" || ms[1].Value != 400 || ms[1].Rel != 800 {
		t.Errorf("gapHeadroom margin %+v", ms[1])
	}
	conf := Verdict{
		Spec:     Spec{Family: FamilyConfineTwo},
		Expect:   ExpectConfine,
		Distinct: 5,
	}
	cms := r.Margins(conf)
	if len(cms) != 1 || cms[0].Metric != "confineHeadroom" || cms[0].Value >= 0 {
		t.Errorf("violated confinement margins %+v", cms)
	}
	if got := r.Margins(Verdict{Err: "boom"}); got != nil {
		t.Errorf("errored verdict has margins %+v", got)
	}
}
