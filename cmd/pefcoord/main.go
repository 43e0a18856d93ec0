// Command pefcoord is the leased campaign coordinator: it partitions a
// scenario campaign's canonical spec stream into contiguous blocks,
// leases them to pefscenarios worker processes over a small HTTP/JSON
// API (/lease, /heartbeat, /ack), and folds the acked per-block
// checkpoints into the canonical campaign report.
//
// Fault tolerance is the point: every lease carries an epoch and a
// fencing token, heartbeats keep it alive, and a worker that dies — or
// takes a lease and vanishes — loses the block to a bounded re-lease.
// The determinism bar of the rest of the repository still holds: for a
// fixed campaign the merged report is byte-identical to a single-process
// `pefscenarios` run, for any worker fleet and any failure pattern
// (blocks are deterministic functions of the campaign identity, so it
// never matters which worker incarnation computed one).
//
//	# coordinator (prints the report when every block is acked)
//	pefcoord -family boundary -count 200 -seeds 2 -blocks 6 \
//	         -listen 127.0.0.1:7077
//
//	# workers (any number, anywhere that can reach the coordinator)
//	pefscenarios -worker-coord http://127.0.0.1:7077 -worker-id w1
//
// Flags:
//
//	-listen A         listen address (default 127.0.0.1:0 — a free port)
//	-addr-file P      write the bound address to P (for scripts racing
//	                  against ":0")
//	-count N          scenarios generated per seed (default 100)
//	-seed N           base generator seed (default 1)
//	-seeds N          sweep N consecutive generator seeds starting at -seed
//	-family F         generator: uniform, boundary, markov, adversarial,
//	                  registered
//	-families F,G     restrict the "registered" generator's family pool
//	-maxring N        largest sampled ring size (default 16)
//	-blocks B         lease granularity: the stream is split into B
//	                  contiguous blocks (default 8, capped at the stream
//	                  length)
//	-heartbeat-timeout D
//	                  a lease with no heartbeat for D is expired and its
//	                  block re-leased (default 5s)
//	-max-epochs N     a block leased N times without an ack fails the
//	                  campaign loudly (default 16)
//	-linger D         after the report is written, keep serving "done" to
//	                  workers for D so they exit cleanly (default 2s)
//	-json             emit the versioned campaign document instead of the
//	                  report
//
// The lease fabric serves live introspection on the same listener: GET
// /status (lease-fabric state), GET /metrics (telemetry snapshot:
// lease.granted/expired/reLeased/... counters, lease.ackLatencyMillis
// histogram), /debug/pprof/ (runtime profiles) and GET / (an index of
// every route). At exit a summary line lands on stderr; at completion
// every expired lease has been re-leased, so its expired= and reLeased=
// fields agree — the observable recovery invariant CI asserts.
//
// The process exits non-zero when any scenario violates its predicate,
// when the campaign fails (a block exhausted -max-epochs), or on
// SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pef/internal/harness"
	"pef/internal/lease"
	"pef/internal/scenario"
	"pef/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pefcoord:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pefcoord", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "listen address (\":0\" picks a free port)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file")
		count     = fs.Int("count", 100, "scenarios generated per seed")
		seed      = fs.Uint64("seed", 1, "base generator seed")
		seeds     = fs.Int("seeds", 1, "number of consecutive generator seeds, starting at -seed")
		family    = fs.String("family", "uniform", "generator (see pefscenarios -list)")
		families  = fs.String("families", "", "comma-separated family pool for the registered generator")
		maxRing   = fs.Int("maxring", 16, "largest sampled ring size")
		blocks    = fs.Int("blocks", 8, "contiguous lease blocks the stream is split into")
		hbTimeout = fs.Duration("heartbeat-timeout", 5*time.Second, "expire a lease after this long without a heartbeat")
		maxEpochs = fs.Int("max-epochs", 16, "fail the campaign when a block is leased this many times without an ack")
		linger    = fs.Duration("linger", 2*time.Second, "keep serving \"done\" to workers for this long after the report")
		jsonOut   = fs.Bool("json", false, "emit the versioned campaign document")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *count < 1 {
		return fmt.Errorf("-count must be >= 1, got %d", *count)
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if *blocks < 1 {
		return fmt.Errorf("-blocks must be >= 1, got %d", *blocks)
	}

	reg := telemetry.NewRegistry()
	coord, err := lease.New(lease.Config{
		Campaign: lease.Campaign{
			Generator: *family,
			Gen:       scenario.GenConfig{MaxRing: *maxRing, Families: *families},
			Count:     *count,
			Seeds:     harness.Seeds(*seed, *seeds),
			Blocks:    *blocks,
		},
		HeartbeatTimeout: *hbTimeout,
		MaxEpochs:        *maxEpochs,
		Registry:         reg,
	})
	if err != nil {
		return err
	}
	srv, err := lease.Serve(*listen, *addrFile, coord)
	if err != nil {
		return err
	}
	defer srv.Close()
	camp := coord.Campaign()
	fmt.Fprintf(stderr, "pefcoord: serving http://%s — %d scenarios (generator=%s, count=%d, seeds=%d) in %d blocks\n",
		srv.Addr(), camp.Total(), camp.Generator, camp.Count, len(camp.Seeds), camp.Blocks)

	select {
	case <-coord.Done():
	case <-ctx.Done():
		st := coord.Status()
		fmt.Fprintln(stderr, "pefcoord:", st.Summary())
		return fmt.Errorf("interrupted with %d of %d blocks acked", st.Acked, st.Blocks)
	}
	agg, err := coord.Result()
	fmt.Fprintln(stderr, "pefcoord:", coord.Status().Summary())
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := agg.WriteJSON(stdout); err != nil {
			return err
		}
	} else if err := agg.WriteReport(stdout); err != nil {
		return err
	}
	// Give the fleet a beat to poll /lease, see "done", and exit cleanly
	// before the listener disappears under them.
	if *linger > 0 {
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
		}
	}
	if n := len(agg.Violations()); n > 0 {
		return fmt.Errorf("%d of %d scenario(s) violate the paper's predicates", n, agg.Done())
	}
	return nil
}
