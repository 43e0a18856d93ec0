// Command perfbench is the repository benchmark: it runs one named
// workload of the pef simulator for a fixed number of seconds, checks
// every output it produced, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload campaign-uniform --seed 1 --seconds 10 --trace 0
//
// The benchmark only calls the program's public layer functions and
// reads its existing observational hooks; see README.md for the
// workloads, the metrics and the layer → end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// spanDir is where a traced run writes its spans, relative to the
// checkout root.
var spanDir = filepath.Join(".bench_build", "perfbench", "spans")

// heldOutSeed is the seed reserved for claim checks: tune on others,
// confirm a claimed gain on this one.
const heldOutSeed = 1000003

// Minimum pass counts, so medians exist even when one pass overruns the
// measuring time.
const (
	minPasses       = 3
	minTracedPasses = 2
)

// workload is one named set of inputs and the way to run them.
type workload struct {
	name string
	// setup builds everything a pass needs from the workload seed. It is
	// timed as setup_s and must leave the program warm.
	setup func(seed uint64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// pass runs the workload's fixed input once. With a non-nil tracer
	// it records spans around every layer call and returns the layer
	// metrics of the pass.
	pass(ctx context.Context, tr *tracer) (passResult, error)
	// finish runs the output checks that need the whole timed phase and
	// releases what setup acquired.
	finish() error
}

// passResult is what one pass delivered.
type passResult struct {
	ops    int // verdicts, search samples, experiment jobs or requests
	failed int // error verdicts, failed jobs, non-200 or refused requests
	// first is the time from the start of the pass to the first result.
	first time.Duration
	// lat holds one latency per delivery unit of the workload (see
	// README.md, "request_p50_ms").
	lat []time.Duration
	// digest identifies the pass output; every pass of a run, traced or
	// not, must produce the same digest.
	digest string
	// wall is the duration of the measured part of the pass; probes a
	// traced pass runs afterwards are excluded.
	wall time.Duration
	// layer holds the per-layer metrics of a traced pass.
	layer map[string]float64
}

var workloads = []workload{
	{name: "campaign-uniform", setup: campaignSetup("uniform")},
	{name: "campaign-adversarial", setup: campaignSetup("adversarial")},
	{name: "search-steered", setup: searchSetup},
	{name: "sweep-battery", setup: sweepSetup},
	{name: "serve-run", setup: serveSetup},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run with per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	opts := runOptions{seed: *seed, seconds: *seconds, traced: *trace == 1, spanDir: spanDir}
	res, err := run(context.Background(), w, opts, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type runOptions struct {
	seed    uint64
	seconds int
	traced  bool
	spanDir string // empty: spans are not written
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how often setup runs; setup_s is the median.
const setupRepeats = 9

// run sets the workload up, measures it and checks its outputs. Human-
// readable detail goes to log; an error means the benchmark itself could
// not run (a failed output check is reported through result.Correct).
func run(ctx context.Context, w workload, opts runOptions, log io.Writer) (result, error) {
	host := fingerprint()
	hostLine, _ := json.Marshal(host) // plain strings and ints: cannot fail
	fmt.Fprintf(log, "host %s\n", hostLine)
	fmt.Fprintf(log, "workload %s seed %d seconds %d trace %v (held-out seed %d)\n",
		w.name, opts.seed, opts.seconds, opts.traced, heldOutSeed)

	var inst instance
	var setups []float64
	repeats := setupRepeats
	if opts.traced {
		repeats = 1 // the traced run reports no setup_s
	}
	for i := 0; i < repeats; i++ {
		if inst != nil {
			if err := inst.finish(); err != nil {
				return result{}, fmt.Errorf("releasing setup %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		inst, err = w.setup(opts.seed)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var checks []string // failed output checks
	var m map[string]metric
	var attempted, failed int
	var tr *tracer
	if opts.traced {
		tr = newTracer(w.name, opts.seed)
		m, attempted, failed, checks = measureTraced(ctx, inst, opts, tr, log)
	} else {
		m, attempted, failed, checks = measure(ctx, inst, opts, log)
		m["setup_s"] = metric{median(setups), "s"}
	}
	if err := inst.finish(); err != nil {
		checks = append(checks, err.Error())
	}
	if tr != nil && opts.spanDir != "" {
		if err := tr.write(opts.spanDir, host); err != nil {
			return result{}, err
		}
	}
	for _, c := range checks {
		fmt.Fprintf(log, "CHECK FAILED: %s\n", c)
	}
	if failed > 0 {
		checks = append(checks, fmt.Sprintf("%d of %d operations failed", failed, attempted))
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return result{Correct: len(checks) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// timedPass runs one pass and records its resource use.
type timedPass struct {
	passResult
	cpu   float64 // process user+system seconds
	alloc float64 // bytes allocated
	rss   float64 // peak resident set, bytes
	gcs   float64 // GC cycles
	pause float64 // GC pause seconds
}

func runPass(ctx context.Context, inst instance, tr *tracer) (timedPass, error) {
	resetPeakRSS()
	before := sample()
	start := time.Now()
	pr, err := inst.pass(ctx, tr)
	if pr.wall == 0 {
		pr.wall = time.Since(start)
	}
	after := sample()
	return timedPass{
		passResult: pr,
		cpu:        after.cpu - before.cpu,
		alloc:      after.alloc - before.alloc,
		gcs:        after.gcs - before.gcs,
		pause:      after.pause - before.pause,
		rss:        peakRSS(),
	}, err
}

// digestCheck appends a failed check when a pass digest differs from
// the first one seen.
func digestCheck(checks []string, want *string, p timedPass, label string) []string {
	switch {
	case *want == "":
		*want = p.digest
	case p.digest != *want:
		checks = append(checks, fmt.Sprintf("%s output digest %s differs from the first pass's %s", label, p.digest, *want))
	}
	return checks
}

// measure runs untraced passes for the measuring time and derives the
// end-to-end metrics.
func measure(ctx context.Context, inst instance, opts runOptions, log io.Writer) (map[string]metric, int, int, []string) {
	var passes []timedPass
	var checks []string
	var digest string
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(opts.seconds) * time.Second)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		p, err := runPass(ctx, inst, nil)
		if err != nil {
			checks = append(checks, fmt.Sprintf("pass %d: %v", len(passes), err))
			break
		}
		attempted += p.ops
		failed += p.failed
		checks = digestCheck(checks, &digest, p, fmt.Sprintf("pass %d", len(passes)))
		passes = append(passes, p)
	}
	var ops, first, p50, p99, cpu, alloc, rss []float64
	for _, p := range passes {
		ops = append(ops, float64(p.ops)/p.wall.Seconds())
		first = append(first, p.first.Seconds())
		p50 = append(p50, millis(percentile(p.lat, 0.50)))
		p99 = append(p99, millis(percentile(p.lat, 0.99)))
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, p.alloc/(1<<20))
		rss = append(rss, p.rss/(1<<20))
	}
	samples := 0
	if len(passes) > 0 {
		samples = len(passes[0].lat)
	}
	fmt.Fprintf(log, "passes %d, latency samples per pass %d, output digest %s\n", len(passes), samples, digest)
	fmt.Fprintf(log, "ops_per_s by pass %.1f\n", ops)
	return map[string]metric{
		"ops_per_s":      {median(ops), "1/s"},
		"first_result_s": {median(first), "s"},
		"request_p50_ms": {median(p50), "ms"},
		"request_p99_ms": {median(p99), "ms"},
		"cpu_s":          {median(cpu), "s"},
		"alloc_mib":      {median(alloc), "MiB"},
		"peak_rss_mib":   {median(rss), "MiB"},
	}, attempted, failed, checks
}

// measureTraced alternates untraced and traced passes for the measuring
// time. Layer metrics are the medians over the traced passes; exact
// counts must agree between them.
func measureTraced(ctx context.Context, inst instance, opts runOptions, tr *tracer, log io.Writer) (map[string]metric, int, int, []string) {
	var plain, traced []timedPass
	var checks []string
	var digest string
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(opts.seconds) * time.Second)
	for len(traced) < minTracedPasses || time.Now().Before(deadline) {
		var t *tracer
		if len(plain) > len(traced) {
			t = tr
			tr.nextRun()
		}
		p, err := runPass(ctx, inst, t)
		if err != nil {
			checks = append(checks, fmt.Sprintf("pass %d: %v", len(plain)+len(traced), err))
			break
		}
		attempted += p.ops
		failed += p.failed
		label := "untraced pass"
		if t != nil {
			label = "traced pass"
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		checks = digestCheck(checks, &digest, p, label)
	}
	m := map[string]metric{}
	for _, d := range layerMetrics {
		var vs []float64
		for _, p := range traced {
			v := p.layer[d.name] // absent: the layer is not on this workload's path
			switch d.name {
			case "runtime.gc_cycles":
				v = p.gcs
			case "runtime.gc_pause_s":
				v = p.pause
			}
			vs = append(vs, v)
		}
		if d.exact && len(vs) > 0 {
			for _, v := range vs[1:] {
				if v != vs[0] {
					checks = append(checks, fmt.Sprintf("exact count %s differs between traced passes: %v", d.name, vs))
					break
				}
			}
		}
		m[d.name] = metric{median(vs), d.unit}
	}
	rate := func(ps []timedPass) float64 {
		var vs []float64
		for _, p := range ps {
			vs = append(vs, float64(p.ops)/p.wall.Seconds())
		}
		return median(vs)
	}
	m["trace.overhead_ops_per_s"] = metric{rate(plain) - rate(traced), "1/s"}
	fmt.Fprintf(log, "passes %d untraced + %d traced, spans %d, output digest %s\n", len(plain), len(traced), tr.len(), digest)
	return m, attempted, failed, checks
}

// layerMetric describes one per-layer metric.
type layerMetric struct {
	name, unit string
	// exact marks a deterministic count: equal on every traced pass at a
	// fixed seed.
	exact bool
}

// layerMetrics lists every per-layer metric a traced run prints. A
// layer a workload never reaches reports 0.
var layerMetrics = []layerMetric{
	{"scenario.generate_s", "s", false},
	{"scenario.engine_s", "s", false},
	{"scenario.aggregate_s", "s", false},
	{"scenario.render_s", "s", false},
	{"scenario.lockstep_specs", "count", true},
	{"scenario.scalar_specs", "count", true},
	{"scenario.skip.dynamics", "count", true},
	{"scenario.skip.algorithm", "count", true},
	{"scenario.lane_occupancy_mean", "lanes", true},
	{"fsync.scalar_rounds", "count", true},
	{"fsync.lane_rounds", "count", true},
	{"fsync.scalar_ns_per_round", "ns", false},
	{"fsync.lane_ns_per_lane_round", "ns", false},
	{"dyngraph.fallback_lane_share", "ratio", true},
	{"harness.pool_jobs", "count", true},
	{"harness.pool_inflight_peak", "count", false},
	{"harness.pool_busy_share", "ratio", false},
	{"harness.job_p50_ms", "ms", false},
	{"harness.job_max_ms", "ms", false},
	{"search.generation_p50_s", "s", false},
	{"search.engine_share", "ratio", false},
	{"search.steer_s", "s", false},
	{"search.samples", "count", true},
	{"search.violations", "count", true},
	{"search.minimized", "count", true},
	{"serve.hit_p50_ms", "ms", false},
	{"serve.hit_p99_ms", "ms", false},
	{"serve.miss_p50_ms", "ms", false},
	{"serve.miss_p99_ms", "ms", false},
	{"serve.hit_ratio", "ratio", true},
	{"serve.cache_hits", "count", true},
	{"serve.coalesced", "count", false},
	{"serve.rejected", "count", false},
	{"serve.engine_p50_ms", "ms", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_s", "s", false},
}
