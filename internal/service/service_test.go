package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"owl/internal/core"
)

// newTestServer builds a manager + HTTP server with a small pool.
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	srv := httptest.NewServer(NewServer(mgr))
	t.Cleanup(srv.Close)
	return mgr, srv
}

func postJob(t *testing.T, srv *httptest.Server, req JobRequest) (JobView, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitState polls a job until it reaches a terminal state or want.
func waitState(t *testing.T, srv *httptest.Server, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var view JobView
		if code := getJSON(t, srv.URL+"/v1/jobs/"+id, &view); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d", id, code)
		}
		if view.State == want || view.State.Terminal() {
			return view
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

// TestJobLifecycle drives the full HTTP lifecycle: submit → poll → fetch
// the JSON and HTML reports → verify the metrics counters advanced.
func TestJobLifecycle(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: NewPool(4)})

	// Health first.
	if code := getJSON(t, srv.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}

	view, code := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 6, RandomRuns: 6, Seed: 7})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	if view.State != StateQueued && !view.State.Terminal() {
		t.Fatalf("fresh job state = %s", view.State)
	}

	final := waitState(t, srv, view.ID, StateDone)
	if final.State != StateDone {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	if final.RunsDone == 0 || final.RunsDone != final.RunsTotal {
		t.Errorf("progress %d/%d after done", final.RunsDone, final.RunsTotal)
	}
	if final.Classes == 0 {
		t.Error("no classes recorded on the finished job")
	}

	// JSON report.
	var report core.Report
	if code := getJSON(t, srv.URL+"/v1/jobs/"+view.ID+"/report", &report); code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	if report.Program != "dummy" {
		t.Errorf("report program = %q", report.Program)
	}
	if !report.PotentialLeak {
		t.Error("dummy workload should report potential leakage")
	}

	// HTML report.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/report.html")
	if err != nil {
		t.Fatal(err)
	}
	html := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(html, "Owl side-channel report") {
		t.Errorf("report.html: status %d, body %.80q", resp.StatusCode, html)
	}

	// Metrics counters advanced.
	metrics := fetchMetrics(t, srv)
	if n := metricInt(t, metrics, "executions_recorded"); n < int64(final.RunsTotal) {
		t.Errorf("executions_recorded = %d, want >= %d", n, final.RunsTotal)
	}
	jobs := metrics["jobs"].(map[string]any)
	if jobs[string(StateDone)].(float64) < 1 {
		t.Errorf("metrics jobs = %v, want >= 1 done", jobs)
	}
	hist := metrics["span_duration_ms"].(map[string]any)["job"].(map[string]any)
	if hist["count"].(float64) < 1 {
		t.Errorf("span_duration_ms[job] histogram empty: %v", hist)
	}

	// Resubmitting the same request is a cache hit served instantly.
	view2, code := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 6, RandomRuns: 6, Seed: 7})
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	if view2.State != StateDone || !view2.CacheHit {
		t.Errorf("resubmit state = %s cacheHit = %v, want instant done hit", view2.State, view2.CacheHit)
	}
	metrics = fetchMetrics(t, srv)
	if n := metricInt(t, metrics, "cache_hits"); n != 1 {
		t.Errorf("cache_hits = %d, want 1", n)
	}

	// The full job listing shows both jobs.
	var all []JobView
	if code := getJSON(t, srv.URL+"/v1/jobs", &all); code != http.StatusOK || len(all) != 2 {
		t.Errorf("GET /v1/jobs: status %d, %d jobs", code, len(all))
	}
}

// TestJobCancellation kills a running job and asserts its workers are
// released: a follow-up job on the same single-worker manager completes.
func TestJobCancellation(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: NewPool(2)})

	// A big AES job: hundreds of executions, each a full simulated run, so
	// cancellation lands mid-recording.
	view, code := postJob(t, srv, JobRequest{Program: "libgpucrypto/aes128", FixedRuns: 400, RandomRuns: 400})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	waitState(t, srv, view.ID, StateRecording)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}

	final := waitState(t, srv, view.ID, StateCanceled)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s", final.State)
	}

	// No report for a canceled job.
	if code := getJSON(t, srv.URL+"/v1/jobs/"+view.ID+"/report", nil); code != http.StatusConflict {
		t.Errorf("report of canceled job: status %d, want %d", code, http.StatusConflict)
	}

	// The pool and the job worker must be free again.
	view2, code := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 4, RandomRuns: 4})
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d", code)
	}
	if final := waitState(t, srv, view2.ID, StateDone); final.State != StateDone {
		t.Fatalf("post-cancel job finished %s (error %q): workers not released", final.State, final.Error)
	}
}

// TestFinishedJobsEvicted fills the manager with more than keptJobs
// terminal jobs (result-cache hits, done on submission) while one job
// runs and one waits in the queue. Only the newest keptJobs terminal jobs
// stay: the oldest answer GET with the unknown-job 404 and drop out of
// the listing, the running and queued jobs stay, and the jobs gauge
// still counts every job ever submitted.
func TestFinishedJobsEvicted(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: NewPool(2), JobWorkers: 1})
	hit := JobRequest{Program: "dummy", FixedRuns: 4, RandomRuns: 4, Seed: 3}
	first, code := postJob(t, srv, hit)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	if final := waitState(t, srv, first.ID, StateDone); final.State != StateDone {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	running, _ := postJob(t, srv, JobRequest{Program: "libgpucrypto/aes128", FixedRuns: 400, RandomRuns: 400})
	waitState(t, srv, running.ID, StateRecording)
	queued, _ := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 4, RandomRuns: 4, Seed: 4})

	const hits = keptJobs + 5
	var ids []string
	for range hits {
		view, code := postJob(t, srv, hit)
		if code != http.StatusAccepted || view.State != StateDone {
			t.Fatalf("cache-hit submit: status %d, state %s", code, view.State)
		}
		ids = append(ids, view.ID)
	}
	// The first job and the first 5 hits are the 6 oldest of 70 terminal jobs.
	for _, id := range append([]string{first.ID}, ids[:5]...) {
		if code := getJSON(t, srv.URL+"/v1/jobs/"+id, nil); code != http.StatusNotFound {
			t.Errorf("GET evicted job %s: status %d, want %d", id, code, http.StatusNotFound)
		}
	}
	for _, id := range []string{ids[5], ids[len(ids)-1], running.ID, queued.ID} {
		if code := getJSON(t, srv.URL+"/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Errorf("GET kept job %s: status %d", id, code)
		}
	}
	var all []JobView
	if code := getJSON(t, srv.URL+"/v1/jobs", &all); code != http.StatusOK || len(all) != keptJobs+2 {
		t.Errorf("GET /v1/jobs: status %d, %d jobs, want %d", code, len(all), keptJobs+2)
	}
	jobs := fetchMetrics(t, srv)["jobs"].(map[string]any)
	var total float64
	for _, n := range jobs {
		total += n.(float64)
	}
	if total != hits+3 || jobs[string(StateDone)].(float64) != hits+1 {
		t.Errorf("metrics jobs = %v, want %d in all and %d done", jobs, hits+3, hits+1)
	}

	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	waitState(t, srv, running.ID, StateCanceled)
}

// TestUnversionedAliases checks the retired unversioned routes answer
// 404 with a Link header naming the /v1 successor, that the /v1 routes
// still serve, and that the streaming metrics appear in the snapshot.
func TestUnversionedAliases(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: NewPool(2)})
	for _, path := range []string{"/healthz", "/jobs", "/programs", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s (retired alias): status %d, want %d", path, resp.StatusCode, http.StatusNotFound)
		}
		want := "</v1" + path + `>; rel="successor-version"`
		if link := resp.Header.Get("Link"); link != want {
			t.Errorf("GET %s: Link header %q, want %q", path, link, want)
		}
		if code := getJSON(t, srv.URL+"/v1"+path, nil); code != http.StatusOK {
			t.Errorf("GET /v1%s: status %d", path, code)
		}
	}

	view, code := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 4, RandomRuns: 4})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	if final := waitState(t, srv, view.ID, StateDone); final.State != StateDone {
		t.Fatalf("job finished %s", final.State)
	}
	metrics := fetchMetrics(t, srv)
	spans, _ := metrics["span_duration_ms"].(map[string]any)
	if _, ok := spans["evidence.merge"].(map[string]any); !ok {
		t.Errorf("span_duration_ms[evidence.merge] missing from metrics: %v", metrics["span_duration_ms"])
	}
	peak, ok := metrics["job_peak_alloc_bytes"].(map[string]any)
	if !ok || peak["max"].(float64) <= 0 {
		t.Errorf("job_peak_alloc_bytes not populated: %v", metrics["job_peak_alloc_bytes"])
	}
}

// TestSubmitValidation rejects unknown programs and bad options.
func TestSubmitValidation(t *testing.T) {
	_, srv := newTestServer(t, Config{Pool: NewPool(1)})
	if _, code := postJob(t, srv, JobRequest{Program: "no/such"}); code != http.StatusBadRequest {
		t.Errorf("unknown program: status %d", code)
	}
	if _, code := postJob(t, srv, JobRequest{Program: "dummy", FixedRuns: 1}); code != http.StatusBadRequest {
		t.Errorf("fixed_runs=1: status %d", code)
	}
}

// TestDrainRejectsSubmissions verifies graceful shutdown semantics.
func TestDrainRejectsSubmissions(t *testing.T) {
	mgr, srv := newTestServer(t, Config{Pool: NewPool(1)})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatalf("drain of idle manager: %v", err)
	}
	if _, code := postJob(t, srv, JobRequest{Program: "dummy"}); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d", code)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func fetchMetrics(t *testing.T, srv *httptest.Server) map[string]any {
	t.Helper()
	var wrapper map[string]map[string]any
	if code := getJSON(t, srv.URL+"/v1/metrics", &wrapper); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	return wrapper["owld"]
}

func metricInt(t *testing.T, metrics map[string]any, name string) int64 {
	t.Helper()
	v, ok := metrics[name].(float64)
	if !ok {
		t.Fatalf("metric %s missing or not numeric: %v", name, metrics[name])
	}
	return int64(v)
}

// TestMitigateJob submits a repair job over HTTP and checks the whole
// surface: the job view carries a mitigation summary, /mitigation serves
// the transform log and site diff, the hardened re-detection is the job's
// report, and the result cache is bypassed in both directions.
func TestMitigateJob(t *testing.T) {
	mgr, srv := newTestServer(t, Config{})

	req := JobRequest{Program: "libgpucrypto/rsa", FixedRuns: 8, RandomRuns: 8, Mitigate: true}
	view, code := postJob(t, srv, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitState(t, srv, view.ID, StateDone)
	if done.State != StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}
	if done.Mitigation == nil {
		t.Fatal("done mitigate job has no mitigation summary in its view")
	}
	if done.Mitigation.SitesBefore == 0 {
		t.Fatal("expected the leaky RSA kernel to be flagged before repair")
	}
	if done.Mitigation.SitesAfter != 0 || done.Mitigation.New != 0 {
		t.Fatalf("expected a clean hardened re-detection, got %+v", done.Mitigation)
	}
	if done.Mitigation.Applied == 0 {
		t.Fatal("expected at least one applied transform")
	}
	if done.CacheHit {
		t.Fatal("mitigate job must not be served from the result cache")
	}

	// The full mitigation document.
	var res struct {
		Program    string `json:"program"`
		Transforms []struct {
			Kind    string `json:"kind"`
			Applied bool   `json:"applied"`
		} `json:"transforms"`
		BeforeSites []json.RawMessage `json:"before_sites"`
		AfterSites  []json.RawMessage `json:"after_sites"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+view.ID+"/mitigation", &res); code != http.StatusOK {
		t.Fatalf("GET /mitigation: status %d", code)
	}
	if res.Program != "libgpucrypto/rsa" {
		t.Fatalf("mitigation program = %q", res.Program)
	}
	if len(res.BeforeSites) == 0 || len(res.AfterSites) != 0 {
		t.Fatalf("mitigation sites: %d before, %d after", len(res.BeforeSites), len(res.AfterSites))
	}

	// The job's report is the hardened program's re-detection.
	var report core.Report
	if code := getJSON(t, srv.URL+"/v1/jobs/"+view.ID+"/report", &report); code != http.StatusOK {
		t.Fatalf("GET /report: status %d", code)
	}
	if !strings.HasSuffix(report.Program, "+hardened") {
		t.Fatalf("report program = %q, want hardened variant", report.Program)
	}

	// A later plain detection with identical options must not be served
	// the mitigate job's after-report from the cache.
	plain, code := postJob(t, srv, JobRequest{Program: "libgpucrypto/rsa", FixedRuns: 8, RandomRuns: 8})
	if code != http.StatusAccepted {
		t.Fatalf("plain submit: status %d", code)
	}
	if plain.CacheHit {
		t.Fatal("plain detection hit the cache; mitigate job should not have populated it")
	}
	plainDone := waitState(t, srv, plain.ID, StateDone)
	if plainDone.State != StateDone {
		t.Fatalf("plain job ended %s (%s)", plainDone.State, plainDone.Error)
	}
	if plainDone.Mitigation != nil {
		t.Fatal("plain detection job has a mitigation summary")
	}
	if plainDone.Leaks == nil || *plainDone.Leaks == 0 {
		t.Fatal("plain detection of the leaky RSA program found no leaks")
	}

	// /mitigation on a plain job is a conflict, not a 404.
	if code := getJSON(t, srv.URL+"/v1/jobs/"+plain.ID+"/mitigation", nil); code != http.StatusConflict {
		t.Fatalf("GET /mitigation on plain job: status %d, want 409", code)
	}
	_ = mgr
}
