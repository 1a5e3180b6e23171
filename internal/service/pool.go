// Package service turns the Owl pipeline into a long-running,
// batch-processing detection service: a bounded worker pool that
// parallelizes trace recording (Runner/Pool), an in-memory job manager
// with states, progress, cancellation and timeouts (Manager), an LRU
// result cache keyed by content (cluster.Fingerprint), expvar metrics,
// and the HTTP/JSON API served by cmd/owld.
package service

import (
	"context"
	"runtime"

	"owl/internal/core"
	"owl/internal/cuda"
)

// Pool is a bounded execution-recording worker pool shared by every job
// of a daemon. Each recording goroutine records one instrumented
// execution at a time on its own run state (core.StreamParallel resets
// one simulated device and context per goroutine between runs), so
// concurrency never shares device state. Because
// the pipeline draws inputs and per-run seeds sequentially before
// dispatch and merges streamed traces through a reorder window, pool-
// backed recording is bit-identical to the sequential path.
type Pool struct {
	sem chan struct{}
}

// NewPool sizes a pool. workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Active returns how many pool slots are recording right now.
func (p *Pool) Active() int { return len(p.sem) }

// Idle returns how many pool slots are free — the coordinator-facing
// backpressure signal surfaced through /readyz.
func (p *Pool) Idle() int { return cap(p.sem) - len(p.sem) }

// Runner returns a streaming core.Runner that records on the pool,
// delivering each trace to the pipeline's sink the moment its run
// completes. onRun, when non-nil, is invoked after every recorded
// execution (from worker goroutines — it must be safe for concurrent
// use); jobs use it to advance their progress counters.
func (p *Pool) Runner(onRun func()) core.Runner {
	return &poolRunner{pool: p, onRun: onRun}
}

type poolRunner struct {
	pool  *Pool
	onRun func()
}

// RecordStream implements core.Runner on core's one fan-out, holding a
// pool slot per in-flight run so every job of the daemon shares the
// bound.
func (r *poolRunner) RecordStream(ctx context.Context, prog cuda.Program, reqs []core.RunRequest, recipe core.Recipe, sink core.TraceSink) error {
	if r.onRun != nil {
		deliver := sink
		sink = func(ctx context.Context, res core.RunResult) error {
			r.onRun()
			return deliver(ctx, res)
		}
	}
	return core.StreamParallel(ctx, r.pool.sem, prog, reqs, recipe, sink)
}
