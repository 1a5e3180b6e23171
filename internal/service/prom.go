// Prometheus rendering of the daemon's metrics: the expvar counters and
// gauges of Metrics plus the span latency histograms of the manager's
// flight recorder, in the text exposition format (obs.PromWriter).
// Metric names and conventions are documented in DESIGN.md §8.
package service

import (
	"expvar"
	"io"
	"sort"

	"owl/internal/obs"
)

// workerFamily renders a per-worker expvar.Map as one labeled counter
// family. Map iteration is key-sorted, so exposition order is stable.
func workerFamily(pw *obs.PromWriter, name, help string, mp *expvar.Map) {
	pw.Header(name, help, "counter")
	emitted := false
	mp.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			pw.Sample(name, float64(v.Value()), "worker", kv.Key)
			emitted = true
		}
	})
	if !emitted {
		pw.Sample(name, 0, "worker", "none")
	}
}

// WritePrometheus renders m — and, when rec is non-nil, rec's span
// duration histograms — as Prometheus text exposition.
func WritePrometheus(w io.Writer, m *Metrics, rec *obs.Recorder) error {
	pw := obs.NewPromWriter(w)

	pw.Header("owld_jobs", "Jobs currently in each lifecycle state.", "gauge")
	byState := m.JobsByState()
	states := make([]string, 0, len(byState))
	for s := range byState {
		states = append(states, string(s))
	}
	sort.Strings(states)
	if len(states) == 0 {
		pw.Sample("owld_jobs", 0, "state", string(StateQueued))
	}
	for _, s := range states {
		pw.Sample("owld_jobs", float64(byState[State(s)]), "state", s)
	}

	pw.Header("owld_executions_recorded_total", "Instrumented executions recorded.", "counter")
	pw.Sample("owld_executions_recorded_total", float64(m.Executions.Value()))
	pw.Header("owld_cache_hits_total", "Result-cache hits.", "counter")
	pw.Sample("owld_cache_hits_total", float64(m.CacheHits.Value()))
	pw.Header("owld_cache_misses_total", "Result-cache misses.", "counter")
	pw.Sample("owld_cache_misses_total", float64(m.CacheMisses.Value()))

	pw.Header("owld_early_stops_total",
		"Jobs whose recording early stop ended before the run budget.", "counter")
	pw.Sample("owld_early_stops_total", float64(m.EarlyStops.Value()))
	pw.Header("owld_runs_saved_total",
		"Budgeted analysis runs never recorded thanks to early stopping.", "counter")
	pw.Sample("owld_runs_saved_total", float64(m.RunsSaved.Value()))
	pw.Header("owld_cost_leaks_total",
		"Cost-channel leak sites (bank-conflict, coalescing, power-proxy) reported by finished jobs.", "counter")
	pw.Sample("owld_cost_leaks_total", float64(m.CostLeaks.Value()))

	pw.Header("owld_dispatch_retries_total",
		"Cluster batches rebalanced after a worker failure or timeout.", "counter")
	pw.Sample("owld_dispatch_retries_total", float64(m.DispatchRetries.Value()))
	workerFamily(pw, "owld_worker_executions_total",
		"Traces delivered by each cluster worker.", &m.WorkerRuns)
	workerFamily(pw, "owld_worker_retries_total",
		"Batches each cluster worker failed, forcing a rebalance.", &m.WorkerRetries)

	pw.Header("owld_job_peak_alloc_bytes", "Per-job peak live heap in bytes.", "gauge")
	pw.Sample("owld_job_peak_alloc_bytes", float64(m.JobPeakRAM.Last()), "stat", "last")
	pw.Sample("owld_job_peak_alloc_bytes", float64(m.JobPeakRAM.Max()), "stat", "max")

	if rec != nil {
		aggs := rec.Durations()
		names := make([]string, 0, len(aggs))
		for name := range aggs {
			names = append(names, name)
		}
		sort.Strings(names)
		pw.Header("owl_span_duration_ms",
			"Wall-clock of completed spans by name, in milliseconds.", "histogram")
		for _, name := range names {
			pw.Histogram("owl_span_duration_ms", aggs[name], "span", name)
		}
		pw.Header("owl_spans_dropped_total",
			"Spans evicted from the flight-recorder ring.", "counter")
		pw.Sample("owl_spans_dropped_total", float64(rec.Dropped()))
	}
	return pw.Err()
}
