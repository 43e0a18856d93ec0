package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"pef/internal/lease"
	"pef/internal/scenario"
)

// workerOptions carries the engine knobs a lease worker applies to every
// block it runs. The campaign identity itself always comes from the
// coordinator's grant — workers bring compute, not configuration — and
// none of these knobs can change block bytes (worker count and engine
// choice are both byte-invisible).
type workerOptions struct {
	Workers         int
	DisableLockstep bool
	ChaosSeed       uint64
}

// runWorker joins the lease fabric at coordURL and runs granted blocks
// until the coordinator reports the campaign done. Each block executes
// as the contiguous [start, end) shard of the canonical stream — exactly
// what -shard-index/-shard-count would run — and is delivered back as an
// encoded checkpoint under the grant's fencing token.
//
// A non-zero ChaosSeed arms the deterministic fault schedule
// (lease.Chaos): the worker then kills, stalls, or double-acks leases
// per the seeded plan, for chaos-testing the coordinator's recovery. The
// final merged report must stay byte-identical either way.
func runWorker(ctx context.Context, coordURL, id string, opts workerOptions, stderr io.Writer) error {
	if id == "" {
		id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	var chaos *lease.Chaos
	if opts.ChaosSeed != 0 {
		chaos = &lease.Chaos{Seed: opts.ChaosSeed}
	}
	return lease.Work(ctx, lease.WorkerConfig{
		URL:   coordURL,
		ID:    id,
		Chaos: chaos,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "pefscenarios: "+format+"\n", args...)
		},
		Run: func(ctx context.Context, g lease.Grant) ([]byte, error) {
			cfg := scenario.CampaignConfig{
				Generator:       g.Campaign.Generator,
				Gen:             g.Campaign.Gen,
				Count:           g.Campaign.Count,
				Seeds:           g.Campaign.Seeds,
				ShardIndex:      g.Block,
				ShardCount:      g.Campaign.Blocks,
				Workers:         opts.Workers,
				DisableLockstep: opts.DisableLockstep,
			}
			agg, err := scenario.NewAggregate(cfg)
			if err != nil {
				return nil, err
			}
			for v, serr := range scenario.StreamCampaign(ctx, cfg) {
				if serr != nil {
					// Configuration failure or cancellation (a fenced lease
					// cancels the run context): the block is abandoned, never
					// acked with a partial aggregate.
					return nil, serr
				}
				agg.Add(v)
			}
			return agg.Checkpoint().Encode()
		},
	})
}
