package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"

	"owl/internal/htmlreport"
	"owl/internal/obs"
)

// NewServer wires the manager into the daemon's HTTP API. Routes are
// versioned under /v1/ only; the pre-versioning bare paths (removed after
// their one-release deprecation window) answer 404 with a Link header
// naming the /v1 successor so stale clients get a machine-readable
// forwarding address:
//
//	POST   /v1/jobs                 submit a detection (JobRequest JSON)
//	GET    /v1/jobs                 list jobs
//	GET    /v1/jobs/{id}            job status and progress
//	DELETE /v1/jobs/{id}            cancel a job
//	GET    /v1/jobs/{id}/report     detection report (JSON)
//	GET    /v1/jobs/{id}/report.html standalone HTML report
//	GET    /v1/jobs/{id}/mitigation repair result for a mitigate job (transform log, site diff)
//	GET    /v1/jobs/{id}/events     SSE stream of phase / progress / evidence events
//	GET    /v1/jobs/{id}/trace      Chrome trace-event timeline (Perfetto)
//	GET    /v1/programs             detectable workload names
//	GET    /v1/healthz              liveness
//	GET    /v1/readyz               readiness + load (503 until Start, and while draining)
//	GET    /v1/metrics              expvar-style metrics snapshot
//	GET    /v1/metrics/prometheus   Prometheus text exposition
//	GET    /debug/pprof/...         runtime profiles (unversioned only)
func NewServer(m *Manager) http.Handler {
	mux := http.NewServeMux()

	// handle registers one route at its canonical /v1 path and points the
	// retired unversioned spelling at the successor-version responder.
	// pattern is "METHOD /path".
	handle := func(pattern string, h http.HandlerFunc) {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			panic("service: route pattern must be \"METHOD /path\": " + pattern)
		}
		mux.HandleFunc(method+" /v1"+path, h)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			// RFC 8594-style sunset: the alias is gone, the Link header
			// carries the versioned replacement.
			w.Header().Set("Link", fmt.Sprintf("</v1%s>; rel=\"successor-version\"", r.URL.Path))
			httpError(w, http.StatusNotFound,
				fmt.Errorf("unversioned path %s has been removed; use /v1%s", r.URL.Path, r.URL.Path))
		})
	}

	handle("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		job, err := m.Submit(req)
		if err != nil {
			status := http.StatusBadRequest
			switch err {
			case ErrQueueFull:
				status = http.StatusServiceUnavailable
			case ErrDraining:
				status = http.StatusServiceUnavailable
			}
			httpError(w, status, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.View())
	})

	handle("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		views := make([]JobView, len(jobs))
		for i, j := range jobs {
			views[i] = j.View()
		}
		writeJSON(w, http.StatusOK, views)
	})

	handle("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, job.View())
	})

	handle("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Cancel(r.PathValue("id")); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		job, _ := m.Get(r.PathValue("id"))
		writeJSON(w, http.StatusOK, job.View())
	})

	reportOf := func(w http.ResponseWriter, r *http.Request) (*Job, bool) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return nil, false
		}
		if job.Report() == nil {
			httpError(w, http.StatusConflict,
				fmt.Errorf("job %s is %s; no report available", job.ID, job.State()))
			return nil, false
		}
		return job, true
	}

	handle("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		job, ok := reportOf(w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, job.Report())
	})

	handle("GET /jobs/{id}/report.html", func(w http.ResponseWriter, r *http.Request) {
		job, ok := reportOf(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := htmlreport.Render(w, htmlreport.Page{Report: job.Report()}); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	})

	handle("GET /jobs/{id}/mitigation", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		if !job.Mitigate {
			httpError(w, http.StatusConflict,
				fmt.Errorf("job %s is a plain detection; submit with \"mitigate\": true", job.ID))
			return
		}
		if job.Mitigation() == nil {
			httpError(w, http.StatusConflict,
				fmt.Errorf("job %s is %s; no mitigation result available", job.ID, job.State()))
			return
		}
		writeJSON(w, http.StatusOK, job.Mitigation())
	})

	handle("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)

		history, ch, cancel := job.Subscribe()
		defer cancel()
		writeEvent := func(ev JobEvent) bool {
			data, err := json.Marshal(ev)
			if err != nil {
				return false
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return false
			}
			flusher.Flush()
			// The stream ends after the terminal phase event: the job's
			// story is complete.
			return !(ev.Type == "phase" && ev.State.Terminal())
		}
		for _, ev := range history {
			if !writeEvent(ev) {
				return
			}
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case ev := <-ch:
				if !writeEvent(ev) {
					return
				}
			}
		}
	})

	handle("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		trace := job.TraceID()
		if trace == 0 {
			httpError(w, http.StatusConflict,
				fmt.Errorf("job %s has no trace: it is %s and never executed", job.ID, job.State()))
			return
		}
		spans, counters := m.Recorder().SnapshotTrace(trace)
		if len(spans) == 0 {
			httpError(w, http.StatusGone,
				fmt.Errorf("job %s's spans have been evicted from the flight recorder", job.ID))
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := obs.WriteChromeTrace(w, spans, counters); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	})

	handle("GET /programs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Programs())
	})

	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	handle("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The body carries queue depth and slot occupancy so cluster
		// coordinators can size batches off the same probe a load
		// balancer uses; the status code keeps its original semantics.
		rd := m.Readiness()
		status := http.StatusOK
		if !rd.Ready() {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, rd)
	})

	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\"owld\": %s}\n", m.Metrics().Map(m.Recorder()).String())
	})

	handle("GET /metrics/prometheus", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, m.Metrics(), m.Recorder()); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	})

	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
