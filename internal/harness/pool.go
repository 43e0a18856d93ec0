package harness

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// PoolConfig parameterizes StreamPool and RunPool, the generic indexed
// worker pool behind every batch-style sweep in this repository. The pool
// knows nothing about experiments: jobs are plain indices and results
// are any type, so the experiment index, scenario campaigns, and future
// workloads all share one scheduling and determinism engine.
type PoolConfig[R any] struct {
	// Total is the number of jobs, addressed 0..Total-1. It is ignored
	// when Feed supplies the jobs.
	Total int
	// Workers bounds the worker pool; values < 1 mean GOMAXPROCS.
	Workers int
	// Window bounds the reorder buffer. Every job holds permits from its
	// dispatch until its emission — one, unless Feed weighs it otherwise
	// — and the dispatcher starts a job only while fewer than Window
	// permits are held, so pool memory is O(Window) regardless of the job
	// count. Values < 1 mean 8× the worker count. Emission order — and
	// therefore every report — is unaffected by the value.
	Window int
	// Run executes job i on a worker goroutine. It must contain its own
	// panic recovery: the pool does not guess how to turn a panic into an
	// R (see runJob for the experiment-index convention). It is unused
	// when Feed supplies the jobs.
	Run func(i int) R
	// Feed, when non-nil, supplies the jobs lazily in place of Total and
	// Run, so the job count need not be known up front: a caller can
	// draw its input from a sequential stream (e.g. a seeded scenario
	// sampler) and split it into jobs as it goes. The dispatcher calls
	// Feed(i) from its own goroutine, in strict index order, while fewer
	// than Window permits are held, and hands the returned run to a
	// worker as job i — Feed(i) happens-before run. A nil run ends the
	// stream. weight is the number of permits job i holds; a zero weight
	// rides on the permits of earlier jobs, which lets a caller charge
	// the window per batch of jobs rather than per job.
	Feed func(i int) (run func() R, weight int)
	// Placeholder, when non-nil, builds the result slot of a job skipped
	// by cancellation, so it still renders with its identity. It is only
	// invoked for skipped jobs, in ascending index order, after every
	// dispatched job has finished; executed jobs never see it. A Feed
	// stream has no skipped jobs to fill in: it yields the jobs that ran,
	// and its caller knows what it fed.
	Placeholder func(i int) R
	// Cancelled, when non-nil, rewrites the (placeholder) result of a job
	// that never ran because the context was cancelled.
	Cancelled func(i int, r R, err error) R
	// OnResult, when non-nil, is invoked from the collecting goroutine
	// in strict index order, as soon as every earlier job has finished.
	// Emission order is therefore independent of the worker count. It
	// covers executed jobs only, never cancellation placeholders.
	OnResult func(i int, r R)
	// Metrics, when non-nil, receives scheduling telemetry (dispatch and
	// retire counts, permit waits, in-flight and reorder-depth gauges,
	// per-worker utilization). Recording happens on scheduling edges
	// only, never inside Run, and feeds nothing back into scheduling —
	// emission order and output bytes are identical with or without it.
	Metrics *PoolMetrics
}

// PoolItem is one streamed pool result: the job index, its result, and a
// non-nil Err exactly when the job never ran because the context was
// cancelled (its R is then the Placeholder/Cancelled rewrite).
type PoolItem[R any] struct {
	I   int
	R   R
	Err error
}

// StreamPool fans jobs out across a bounded worker pool and yields one
// PoolItem per job in strict index order. Results are collected
// unordered but the yielded sequence is identical for any worker count,
// so streamed output is bit-for-bit reproducible.
//
// Unlike a collect-then-report pool, StreamPool holds O(Window) state: a
// permit scheme stops the dispatcher from running more than Window
// permits ahead of the emission cursor, and emitted results are dropped
// immediately. Consumers that need the full slice use RunPool.
//
// On cancellation, in-flight jobs finish and are yielded normally; jobs
// that never started are yielded afterwards, still in index order, with
// Err set to the context's error and their R built by Placeholder and
// rewritten by Cancelled. Breaking out of the iteration early cancels the
// remaining work and returns after in-flight jobs drain.
func StreamPool[R any](ctx context.Context, cfg PoolConfig[R]) iter.Seq[PoolItem[R]] {
	return func(yield func(PoolItem[R]) bool) {
		total := cfg.Total
		workers := cfg.Workers
		if workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		if cfg.Feed == nil {
			if total <= 0 {
				return
			}
			workers = min(workers, total)
		}
		window := cfg.Window
		if window < 1 {
			window = 8 * workers
		}
		if window < workers {
			window = workers
		}

		inner, cancel := context.WithCancel(ctx)
		defer cancel()

		type job struct {
			i, weight int
			run       func() R
		}
		type indexed struct {
			i, weight int
			r         R
		}
		jobs := make(chan job)
		// One slot per worker: a worker that finishes while the emitter is
		// busy yielding parks its result and moves on to its next job.
		out := make(chan indexed, workers)
		// held counts the permits of jobs between dispatch and emission.
		// The emitter refunds a job's weight once it is yielded and leaves
		// a token in wake, so a dispatcher waiting on a full window
		// re-checks the count.
		var held atomic.Int64
		wake := make(chan struct{}, 1)

		// Dispatcher: hands out jobs in index order, stopping as soon as
		// the context is cancelled. Feed runs here, single-threaded and in
		// index order; the jobs-channel send publishes its effects to the
		// worker running the job.
		m := cfg.Metrics
		go func() {
			defer close(jobs)
			for i := 0; cfg.Feed != nil || i < total; i++ {
				if held.Load() >= int64(window) {
					// The window is full: emission is the bottleneck right
					// now. Count the stall, then wait for a refund.
					if m != nil {
						m.PermitWaits.Inc()
					}
					for held.Load() >= int64(window) {
						select {
						case <-wake:
						case <-inner.Done():
							return
						}
					}
				}
				if inner.Err() != nil {
					return
				}
				j := job{i: i, weight: 1}
				if cfg.Feed != nil {
					if j.run, j.weight = cfg.Feed(i); j.run == nil {
						return
					}
				}
				held.Add(int64(j.weight))
				select {
				case jobs <- j:
					if m != nil {
						m.Dispatched.Inc()
						m.InFlight.Add(1)
					}
				case <-inner.Done():
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ran := 0
				for j := range jobs {
					var r R
					if j.run != nil {
						r = j.run()
					} else {
						r = cfg.Run(j.i)
					}
					if m != nil {
						m.InFlight.Add(-1)
					}
					ran++
					// The send is unconditional: the emitter drains out
					// until it closes, so even on cancellation a finished
					// job's result is never dropped — "in-flight jobs
					// finish" and their results are yielded.
					out <- indexed{j.i, j.weight, r}
				}
				if m != nil {
					m.WorkerJobs.Observe(ran)
				}
			}()
		}
		go func() {
			wg.Wait()
			close(out)
		}()

		// Emitter: parks the unordered completions until every earlier
		// job has been yielded. next is the index-order cursor.
		parked := map[int]indexed{}
		next := 0
		stopped := false
		for ir := range out {
			parked[ir.i] = ir
			if m != nil {
				m.ReorderDepth.Set(int64(len(parked))) // peak lands in the high-water
			}
			for {
				p, ok := parked[next]
				if !ok {
					break
				}
				delete(parked, next) // drop the reference immediately
				if !stopped && !yield(PoolItem[R]{I: next, R: p.r}) {
					stopped = true
					cancel() // consumer left: stop dispatching, drain below
				}
				if m != nil {
					m.Retired.Inc()
				}
				next++
				held.Add(-int64(p.weight))
				select {
				case wake <- struct{}{}:
				default:
				}
			}
			if m != nil {
				m.ReorderDepth.Set(int64(len(parked)))
			}
		}
		if stopped {
			return
		}

		// Dispatched jobs all finished and were yielded; anything left
		// never ran. The dispatcher has exited (close(out) orders after
		// it), so the caller of a Feed stream may continue the input
		// stream Feed was drawing from once the iteration returns.
		if err := ctx.Err(); err != nil && cfg.Feed == nil {
			for i := next; i < total; i++ {
				var r R
				if cfg.Placeholder != nil {
					r = cfg.Placeholder(i)
				}
				if cfg.Cancelled != nil {
					r = cfg.Cancelled(i, r, err)
				}
				if !yield(PoolItem[R]{I: i, R: r, Err: err}) {
					return
				}
			}
		}
	}
}

// RunPool fans Total jobs out across a bounded worker pool and returns one
// result per job in index order. It is StreamPool collected into a slice:
// results — and the OnResult callback sequence — are identical for any
// worker count, so pool output is bit-for-bit reproducible.
//
// RunPool itself fails only when ctx is cancelled, in which case in-flight
// jobs finish, unstarted jobs carry their Placeholder result (rewritten by
// Cancelled), and the partially-executed slice is returned alongside the
// context error.
func RunPool[R any](ctx context.Context, cfg PoolConfig[R]) ([]R, error) {
	results := make([]R, cfg.Total)
	for item := range StreamPool(ctx, cfg) {
		results[item.I] = item.R
		if item.Err == nil && cfg.OnResult != nil {
			cfg.OnResult(item.I, item.R)
		}
	}
	return results, ctx.Err()
}
