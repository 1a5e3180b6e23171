package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/experiments"
	"owl/internal/isa"
	"owl/internal/obs"
	"owl/internal/trace"
)

// Worker is one recording agent of a detection cluster: it accepts
// record-batch requests over HTTP, runs them through the vectorized
// pipeline on a bounded slot pool, and streams each trace back the moment
// its run completes. Workers are stateless between batches apart from the
// shared content-addressed report cache, so a coordinator can treat the
// fleet as interchangeable capacity.
type Worker struct {
	programs map[string]cuda.Program
	slots    chan struct{}
	cache    *ReportCache

	unfinished   atomic.Int64 // accepted runs not yet streamed back or abandoned
	runs         atomic.Int64 // completed recordings, ever
	spansShipped atomic.Int64 // span records streamed back, ever
	draining     atomic.Bool

	log *slog.Logger
}

// NewWorker builds a worker over the full evaluation-suite workload
// registry. slots bounds concurrent recordings (<= 0 selects GOMAXPROCS);
// cacheSize is the shared report-cache capacity (<= 0 disables it).
func NewWorker(slots, cacheSize int) (*Worker, error) {
	targets, err := experiments.FullSuite()
	if err != nil {
		return nil, err
	}
	programs := make(map[string]cuda.Program, len(targets))
	for _, t := range targets {
		programs[t.Program.Name()] = t.Program
	}
	return NewWorkerWithPrograms(slots, cacheSize, programs), nil
}

// NewWorkerWithPrograms builds a worker over an explicit program
// registry; tests use it to serve scaled-down workloads.
func NewWorkerWithPrograms(slots, cacheSize int, programs map[string]cuda.Program) *Worker {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Worker{
		programs: programs,
		slots:    make(chan struct{}, slots),
		cache:    NewReportCache(cacheSize),
	}
}

// SetLogger installs a structured logger for batch-lifecycle records;
// nil (the default) disables logging.
func (w *Worker) SetLogger(l *slog.Logger) { w.log = l }

// Slots returns the worker's concurrency bound.
func (w *Worker) Slots() int { return cap(w.slots) }

// Runs returns the number of recordings the worker has completed.
func (w *Worker) Runs() int64 { return w.runs.Load() }

// SetDraining flips the readiness bit: a draining worker answers /readyz
// with 503 so coordinators stop dispatching to it while in-flight batches
// finish.
func (w *Worker) SetDraining(v bool) { w.draining.Store(v) }

// Readiness snapshots the worker's load for /readyz: queue depth plus
// active and idle slot counts, the inputs of the coordinator's
// backpressure-aware batch sizing. A held slot is an active run, and an
// unfinished run without a slot is queued.
func (w *Worker) Readiness() Readiness {
	active := len(w.slots)
	slots := cap(w.slots)
	r := Readiness{
		Status:      "ready",
		QueueDepth:  max(int(w.unfinished.Load())-active, 0),
		ActiveSlots: active,
		IdleSlots:   slots - active,
		Slots:       slots,
	}
	if w.draining.Load() {
		r.Status = "draining"
	}
	return r
}

// Handler serves the worker's HTTP API, all of it under /v1:
//
//	POST /v1/record        record a batch, stream gob WireResults back
//	GET  /v1/readyz        Readiness JSON (503 while draining)
//	GET  /v1/healthz       liveness
//	GET  /v1/cache/{key}   content-addressed report-cache lookup
//	PUT  /v1/cache/{key}   content-addressed report-cache fill
//	GET  /v1/metrics/prometheus  worker load in text exposition
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/record", w.handleRecord)
	mux.HandleFunc("GET /v1/readyz", func(rw http.ResponseWriter, r *http.Request) {
		rd := w.Readiness()
		status := http.StatusOK
		if !rd.Ready() {
			status = http.StatusServiceUnavailable
		}
		writeJSON(rw, status, rd)
	})
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/cache/{key}", func(rw http.ResponseWriter, r *http.Request) {
		rep, ok := w.cache.Get(r.PathValue("key"))
		if !ok {
			writeError(rw, http.StatusNotFound, fmt.Errorf("no cached report %q", r.PathValue("key")))
			return
		}
		writeJSON(rw, http.StatusOK, rep)
	})
	mux.HandleFunc("PUT /v1/cache/{key}", func(rw http.ResponseWriter, r *http.Request) {
		var rep core.Report
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding report: %w", err))
			return
		}
		w.cache.Add(r.PathValue("key"), &rep)
		writeJSON(rw, http.StatusOK, map[string]string{"status": "stored"})
	})
	mux.HandleFunc("GET /v1/metrics/prometheus", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rd := w.Readiness()
		pw := obs.NewPromWriter(rw)
		pw.Header("owlworker_runs_total", "Recordings completed by this worker.", "counter")
		pw.Sample("owlworker_runs_total", float64(w.runs.Load()))
		pw.Header("owlworker_queue_depth", "Accepted runs waiting for a slot.", "gauge")
		pw.Sample("owlworker_queue_depth", float64(rd.QueueDepth))
		pw.Header("owlworker_active_slots", "Slots recording right now.", "gauge")
		pw.Sample("owlworker_active_slots", float64(rd.ActiveSlots))
		pw.Header("owlworker_slots", "Total recording slots.", "gauge")
		pw.Sample("owlworker_slots", float64(rd.Slots))
		pw.Header("owlworker_cache_reports", "Reports resident in the shared cache.", "gauge")
		pw.Sample("owlworker_cache_reports", float64(w.cache.Len()))
		pw.Header("owlworker_spans_shipped_total", "Span records streamed back to coordinators.", "counter")
		pw.Sample("owlworker_spans_shipped_total", float64(w.spansShipped.Load()))
	})
	return mux
}

// handleRecord streams a record batch: core.StreamParallel records the
// requests on the worker's slots, and each WireResult is gob-encoded onto
// the response the moment its run completes, in completion order. The
// first failing run ends the batch and ships as an error result naming
// its index. A client disconnect cancels the remaining runs via the
// request context.
func (w *Worker) handleRecord(rw http.ResponseWriter, r *http.Request) {
	var br BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&br); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding batch: %w", err))
		return
	}
	if br.Protocol != ProtocolVersion {
		writeError(rw, http.StatusBadRequest, versionError(br.Protocol))
		return
	}
	prog, ok := w.programs[br.Program]
	if !ok {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: unknown program %q", br.Program))
		return
	}
	if br.Device.GlobalWords == 0 {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: batch carries a zero device config"))
		return
	}

	rw.Header().Set("Content-Type", "application/x-owl-record-stream")
	rw.Header().Set(protocolHeader, strconv.Itoa(ProtocolVersion))
	rw.WriteHeader(http.StatusOK)
	flusher, _ := rw.(http.Flusher)

	// When the batch carries a trace context, all recording happens under
	// a private per-batch recorder rooted at the coordinator's dispatch
	// span; completed spans are drained into each streamed result. The
	// untraced path builds no recorder at all.
	ctx := r.Context()
	var rec *obs.Recorder
	if br.Trace != nil {
		rec = obs.NewRecorder(4096)
		rec.SeedSpanIDs(obs.RemoteIDBase)
		ctx = obs.WithRecorder(ctx, rec)
		ctx = obs.WithSpanContext(ctx, *br.Trace)
	}
	if w.log != nil {
		w.log.LogAttrs(ctx, slog.LevelInfo, "batch accepted",
			slog.String("program", br.Program),
			slog.Int("runs", len(br.Reqs)),
			slog.Bool("traced", br.Trace != nil))
	}

	var (
		mu      sync.Mutex // serializes the gob stream and the kernel queue
		enc     = gob.NewEncoder(rw)
		shipped = make(map[string]bool)
		kernels []*isa.Kernel // first launched in this batch, not yet sent
	)
	// send streams one result; queued kernels ride along so the
	// coordinator can annotate leak reports, and any spans completed since
	// the last send ship home with it.
	send := func(res WireResult) error {
		mu.Lock()
		defer mu.Unlock()
		res.Kernels, kernels = kernels, nil
		if rec != nil {
			res.Spans, res.Counters = rec.Drain()
			w.spansShipped.Add(int64(len(res.Spans)))
		}
		if err := enc.Encode(&res); err != nil {
			return err // client gone; StreamParallel unwinds the batch
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	recipe := core.Recipe{Device: br.Device, Rebase: br.Rebase, Cost: br.Cost, Harvest: func(k *isa.Kernel) {
		mu.Lock()
		if !shipped[k.Name] {
			shipped[k.Name] = true
			kernels = append(kernels, k)
		}
		mu.Unlock()
	}}
	reqs := make([]core.RunRequest, len(br.Reqs))
	for i, req := range br.Reqs {
		reqs[i] = core.RunRequest{Index: req.Index, Input: req.Input, Seed: req.Seed}
	}
	var streamed atomic.Int64
	w.unfinished.Add(int64(len(reqs)))
	sink := func(ctx context.Context, res core.RunResult) error {
		_, sp := obs.Start(ctx, "wire.encode")
		sp.SetInt("run_index", int64(res.Index))
		var buf bytes.Buffer
		err := res.Trace.WriteGob(&buf)
		trace.Release(res.Trace) // encoded; the next run records into it
		sp.End()                 // before send, so the span ships with its own result
		if err != nil {
			return &core.RunError{Index: res.Index, Err: err}
		}
		w.runs.Add(1)
		streamed.Add(1)
		w.unfinished.Add(-1)
		return send(WireResult{Index: res.Index, Trace: buf.Bytes()})
	}
	err := core.StreamParallel(ctx, w.slots, prog, reqs, recipe, sink)
	w.unfinished.Add(streamed.Load() - int64(len(reqs)))
	var runErr *core.RunError
	if errors.As(err, &runErr) && ctx.Err() == nil {
		_ = send(WireResult{Index: runErr.Index, Err: runErr.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
