package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"owl/internal/obs"
)

// TestHealthReadyEndpoints drives the liveness/readiness pair through the
// manager lifecycle: ready only between Start and Drain.
func TestHealthReadyEndpoints(t *testing.T) {
	mgr, err := NewManager(Config{Pool: NewPool(1)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Liveness holds before Start; readiness does not.
	if code := status("/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz before Start: status %d", code)
	}
	if code := status("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before Start: status %d, want 503", code)
	}

	mgr.Start()
	if code := status("/v1/readyz"); code != http.StatusOK {
		t.Errorf("readyz after Start: status %d", code)
	}
	if code := status("/readyz"); code != http.StatusNotFound {
		t.Errorf("readyz retired alias: status %d, want 404", code)
	}

	// Draining takes the instance out of rotation but keeps it alive.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := status("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while drained: status %d, want 503", code)
	}
	if code := status("/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz while drained: status %d", code)
	}
}

// TestPrometheusEndpoint scrapes /v1/metrics/prometheus after a job and
// validates the exposition line by line.
func TestPrometheusEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: NewPool(2)})

	view, code := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 4, RandomRuns: 4})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	if final := waitState(t, srv, view.ID, StateDone); final.State != StateDone {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %.200q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if err := obs.ValidatePromText([]byte(body)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		`owld_jobs{state="done"} 1`,
		"owld_executions_recorded_total",
		`owl_span_duration_ms_bucket{span="job",le="+Inf"} 1`,
		`owld_job_peak_alloc_bytes{stat="max"}`,
		`owl_span_duration_ms_count{span="detect"} 1`,
		`owl_span_duration_ms_count{span="job"} 1`,
		`owl_span_duration_ms_sum{span="kernel.launch"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every phase of the job has a full histogram series.
	for _, span := range []string{"job", "phase.classify", "phase.record", "phase.analyze", "evidence.merge"} {
		for _, want := range []string{
			`owl_span_duration_ms_bucket{span="` + span + `",le="1"} `,
			`owl_span_duration_ms_bucket{span="` + span + `",le="+Inf"} `,
			`owl_span_duration_ms_sum{span="` + span + `"} `,
			`owl_span_duration_ms_count{span="` + span + `"} `,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("exposition missing %q", want)
			}
		}
	}
	for _, gone := range []string{"owld_job_time_ms", "owld_record_time_ms", "owld_analyze_time_ms", "owld_merge_time_ms"} {
		if strings.Contains(body, gone) {
			t.Errorf("exposition still carries %s", gone)
		}
	}
}

// TestJobTraceEndpoint exports a finished job's timeline and validates
// the Chrome trace-event shape; jobs that never executed have no trace.
func TestJobTraceEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: NewPool(2)})

	view, code := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 4, RandomRuns: 4})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	if final := waitState(t, srv, view.ID, StateDone); final.State != StateDone {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d, body %.200q", resp.StatusCode, body)
	}
	if err := obs.ValidateChromeTrace([]byte(body)); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	events, err := obs.DecodeChromeTrace([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, ev := range events {
		if ev.Ph == "B" || ev.Ph == "C" {
			names[ev.Name] = true
		}
	}
	for _, want := range []string{"job", "detect", "phase.classify", "phase.record", "run", "kernel.launch"} {
		if !names[want] {
			t.Errorf("timeline missing span %q (got %v)", want, names)
		}
	}

	// A cache-hit resubmission never executes, so it has no trace.
	view2, code := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 4, RandomRuns: 4})
	if code != http.StatusAccepted || !view2.CacheHit {
		t.Fatalf("resubmit: status %d, cacheHit %v", code, view2.CacheHit)
	}
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + view2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("trace of cache hit: status %d, want %d", resp2.StatusCode, http.StatusConflict)
	}

	resp3, err := http.Get(srv.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job: status %d, want 404", resp3.StatusCode)
	}
}
