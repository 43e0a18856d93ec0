package pef

import (
	"io"

	"pef/internal/scenario"
	"pef/internal/telemetry"
)

// Telemetry is the engine's instrumentation bundle: counters, gauges and
// distribution histograms recorded by every layer of the stack (worker
// pool, oracle, lockstep router, simulators). Create one with
// NewTelemetry, attach it via WithTelemetry or CampaignConfig.Telemetry,
// and read it at any time with Snapshot — from your own code or by
// serving it over HTTP with ServeTelemetry. Telemetry is observational
// only: verdicts, reports, checkpoints and goldens are byte-identical
// with it on or off, for any worker and lane-width setting.
type Telemetry = scenario.Telemetry

// NewTelemetry creates an instrumentation bundle backed by a fresh
// metric registry.
func NewTelemetry() *Telemetry { return scenario.NewTelemetry() }

// TelemetrySnapshot is a point-in-time copy of every instrument: counter
// values, gauge levels with high-water marks, and histogram summaries
// with exact value→count cells. It marshals to deterministic JSON
// (sorted keys) and merges commutatively across shards.
type TelemetrySnapshot = telemetry.Snapshot

// Tracer emits structured JSONL campaign lifecycle events
// (campaign-start, block-retired, checkpoint-written) with monotonic
// sequence numbers and no wall clocks: a trace of a deterministic
// campaign is byte-identical for any worker count. Attach one via
// CampaignConfig.Trace; a nil *Tracer is a valid no-op.
type Tracer = telemetry.Tracer

// NewTracer creates a tracer writing JSONL event records to w.
func NewTracer(w io.Writer) *Tracer { return telemetry.NewTracer(w) }

// TelemetryServer is the opt-in HTTP introspection endpoint: the live
// snapshot as JSON under /metrics, net/http/pprof under /debug/pprof/
// and a route index at /. Close it when done; Close on nil is a no-op.
type TelemetryServer = telemetry.Server

// ServeTelemetry starts the introspection endpoint on addr (":0" picks a
// free port; use Addr to discover it), serving t's live snapshot. A nil
// t serves empty snapshots — the pprof routes still work.
func ServeTelemetry(addr string, t *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, t.Snapshot)
}
