package service

import (
	"encoding/json"
	"expvar"
	"fmt"
	"sync"

	"owl/internal/obs"
)

// MaxBytes is an expvar.Var tracking a byte quantity across jobs: the
// last observed value and the maximum ever observed. It backs the
// per-job peak-RAM metric of the streaming evidence pipeline.
type MaxBytes struct {
	mu   sync.Mutex
	last uint64
	max  uint64
}

// Observe records one job's value.
func (g *MaxBytes) Observe(v uint64) {
	g.mu.Lock()
	g.last = v
	if v > g.max {
		g.max = v
	}
	g.mu.Unlock()
}

// Max returns the largest observed value.
func (g *MaxBytes) Max() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Last returns the most recently observed value.
func (g *MaxBytes) Last() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// String implements expvar.Var: {"last":N,"max":N}.
func (g *MaxBytes) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return fmt.Sprintf(`{"last":%d,"max":%d}`, g.last, g.max)
}

// Metrics aggregates the daemon's counters. None of the vars are
// published to the global expvar registry, so tests can build as many
// managers as they want; the server renders them per request at
// /v1/metrics.
type Metrics struct {
	mu          sync.Mutex
	jobsByState map[State]int64 // live gauge: how many jobs sit in each state now

	Executions  expvar.Int // instrumented executions recorded
	CacheHits   expvar.Int
	CacheMisses expvar.Int

	// Sequential-testing outcomes: jobs whose recording the controller
	// cancelled early, and the total run budget those cancellations saved.
	EarlyStops expvar.Int
	RunsSaved  expvar.Int

	// Cost-channel outcomes: total cost-channel leaks reported by
	// finished jobs (bank-conflict, coalescing, and power-proxy sites).
	CostLeaks expvar.Int

	// Cluster dispatch: batches rebalanced after a worker failure, plus
	// per-worker delivery and retry breakdowns (keys are worker URLs).
	DispatchRetries expvar.Int
	WorkerRuns      expvar.Map
	WorkerRetries   expvar.Map

	JobPeakRAM MaxBytes // per-job Report.Stats.PeakAllocBytes (last and max)
}

// NewMetrics builds an empty metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{jobsByState: make(map[State]int64)}
	m.WorkerRuns.Init()
	m.WorkerRetries.Init()
	return m
}

// WorkerRun counts one trace delivered by a cluster worker.
func (m *Metrics) WorkerRun(worker string) { m.WorkerRuns.Add(worker, 1) }

// DispatchRetry counts one batch rebalanced off a failed worker.
func (m *Metrics) DispatchRetry(worker string) {
	m.DispatchRetries.Add(1)
	m.WorkerRetries.Add(worker, 1)
}

// JobTransition moves one job between lifecycle states in the gauge;
// from "" admits a newly submitted job.
func (m *Metrics) JobTransition(from, to State) {
	m.mu.Lock()
	if from != "" {
		if m.jobsByState[from]--; m.jobsByState[from] <= 0 {
			delete(m.jobsByState, from)
		}
	}
	m.jobsByState[to]++
	m.mu.Unlock()
}

// JobsByState snapshots the per-state job counts.
func (m *Metrics) JobsByState() map[State]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[State]int64, len(m.jobsByState))
	for s, n := range m.jobsByState {
		out[s] = n
	}
	return out
}

// Map assembles every metric — and, when rec is non-nil, rec's span
// duration histograms under span_duration_ms, keyed by span name — into
// one expvar.Map, served at /v1/metrics.
func (m *Metrics) Map(rec *obs.Recorder) *expvar.Map {
	mp := new(expvar.Map).Init()
	mp.Set("jobs", expvar.Func(func() any { return m.jobsJSON() }))
	mp.Set("executions_recorded", &m.Executions)
	mp.Set("cache_hits", &m.CacheHits)
	mp.Set("cache_misses", &m.CacheMisses)
	mp.Set("early_stops", &m.EarlyStops)
	mp.Set("runs_saved", &m.RunsSaved)
	mp.Set("cost_leaks", &m.CostLeaks)
	mp.Set("dispatch_retries", &m.DispatchRetries)
	mp.Set("worker_executions", &m.WorkerRuns)
	mp.Set("worker_retries", &m.WorkerRetries)
	mp.Set("job_peak_alloc_bytes", &m.JobPeakRAM)
	if rec != nil {
		mp.Set("span_duration_ms", expvar.Func(func() any {
			aggs := rec.Durations()
			out := make(map[string]json.RawMessage, len(aggs))
			for name, agg := range aggs {
				out[name] = json.RawMessage(agg.String())
			}
			return out
		}))
	}
	return mp
}

// jobsJSON renders the state counts as a plain map (encoding/json sorts
// the keys).
func (m *Metrics) jobsJSON() map[string]int64 {
	byState := m.JobsByState()
	out := make(map[string]int64, len(byState))
	for s, n := range byState {
		out[string(s)] = n
	}
	return out
}
