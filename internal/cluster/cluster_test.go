package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/workloads/gpucrypto"
)

// testPrograms is the scaled-down workload registry the in-process
// workers serve; coordinator-side detections construct the same programs
// so registry names resolve identically on both ends.
func testPrograms() map[string]cuda.Program {
	progs := []cuda.Program{
		gpucrypto.NewAES(gpucrypto.WithBlocks(16)),
		gpucrypto.NewRSA(gpucrypto.WithMessages(16)),
	}
	m := make(map[string]cuda.Program, len(progs))
	for _, p := range progs {
		m[p.Name()] = p
	}
	return m
}

// startWorkers brings up n in-process workers and a fleet over them.
func startWorkers(t *testing.T, n int, opts Options) (*Fleet, []*httptest.Server) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := range servers {
		w := NewWorkerWithPrograms(2, 8, testPrograms())
		servers[i] = httptest.NewServer(w.Handler())
		t.Cleanup(servers[i].Close)
		addrs[i] = servers[i].URL
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 10 * time.Millisecond
	}
	fleet, err := NewFleet(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, servers
}

// detectOpts is the fixed small workload configuration every equivalence
// test in this file shares.
func detectOpts() core.Options {
	opts := core.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 12, 12
	opts.Seed = 42
	return opts
}

// detectSequential is the local single-process reference detection.
func detectSequential(t *testing.T, opts core.Options, prog cuda.Program, inputs [][]byte, gen cuda.InputGen) *core.Report {
	t.Helper()
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := det.Detect(prog, inputs, gen)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// detectFleet runs the same detection with recording distributed over the
// fleet, wiring the runner exactly as owl/owld do.
func detectFleet(t *testing.T, fleet *Fleet, opts core.Options, prog cuda.Program, inputs [][]byte, gen cuda.InputGen, onRetry func(string)) *core.Report {
	t.Helper()
	opts.Runner = fleet.Runner(RunnerConfig{OnRetry: onRetry})
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := det.Detect(prog, inputs, gen)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// reportJSON zeroes the run-dependent timing/memory statistics and
// serializes the rest for byte-level comparison.
func reportJSON(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	r := *rep
	r.Stats.TraceCollectTime = 0
	r.Stats.EvidenceTime = 0
	r.Stats.TestTime = 0
	r.Stats.Total = 0
	r.Stats.PeakAllocBytes = 0
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetEquivalence proves the whole point of the wire protocol: a
// 3-worker cluster detection serializes byte-identically to sequential
// single-process detection, leak annotations included, for both crypto
// workloads under default options, and for aes128 under the recipe
// options that travel with each batch — the cost channel (with evidence
// mode both) and rebasing turned off.
func TestFleetEquivalence(t *testing.T) {
	fleet, _ := startWorkers(t, 3, Options{BatchSize: 4})
	aes := func() cuda.Program { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)) }
	aesKeys := [][]byte{[]byte("0123456789abcdef"), []byte("fedcba9876543210")}
	cases := []struct {
		name   string
		prog   func() cuda.Program
		inputs [][]byte
		gen    func() cuda.InputGen
		opts   func(*core.Options)
	}{
		{
			name:   "libgpucrypto/aes128",
			prog:   aes,
			inputs: aesKeys,
			gen:    gpucrypto.KeyGen,
		},
		{
			name:   "libgpucrypto/rsa",
			prog:   func() cuda.Program { return gpucrypto.NewRSA(gpucrypto.WithMessages(16)) },
			inputs: [][]byte{{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00}, {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}},
			gen:    gpucrypto.ExpGen,
		},
		{
			name:   "libgpucrypto/aes128/both+cost",
			prog:   aes,
			inputs: aesKeys,
			gen:    gpucrypto.KeyGen,
			opts: func(o *core.Options) {
				o.Evidence = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
			},
		},
		{
			name:   "libgpucrypto/aes128/no-rebase",
			prog:   aes,
			inputs: aesKeys,
			gen:    gpucrypto.KeyGen,
			opts:   func(o *core.Options) { o.Rebase = false },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := detectOpts()
			if tc.opts != nil {
				tc.opts(&opts)
			}
			seq := detectSequential(t, opts, tc.prog(), tc.inputs, tc.gen())
			want := reportJSON(t, seq)
			got := reportJSON(t, detectFleet(t, fleet, opts, tc.prog(), tc.inputs, tc.gen(), nil))
			if !bytes.Equal(want, got) {
				t.Errorf("cluster report differs from sequential:\nseq: %s\ngot: %s", want, got)
			}
			if !bytes.Contains(want, []byte(`"Leaks":[{`)) {
				t.Error("sequential report found no leaks; equivalence test is vacuous")
			}
			if opts.Evidence.CostEnabled() && seq.Count(core.CostLeak) == 0 {
				t.Error("sequential report found no cost sites; the cost case is vacuous")
			}
		})
	}
}

// cutoffOnce wraps a worker handler and truncates the response stream of
// the first record batch after a byte budget — the in-process stand-in
// for a worker crashing mid-job. Later batches pass through untouched.
type cutoffOnce struct {
	inner http.Handler
	used  atomic.Bool
	cut   atomic.Int64 // batches actually truncated
}

func (c *cutoffOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/record") && !c.used.Swap(true) {
		c.cut.Add(1)
		c.inner.ServeHTTP(&cutoffWriter{ResponseWriter: w, remaining: 512}, r)
		return
	}
	c.inner.ServeHTTP(w, r)
}

type cutoffWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *cutoffWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, errors.New("connection cut")
	}
	if len(p) > w.remaining {
		p = p[:w.remaining]
	}
	n, err := w.ResponseWriter.Write(p)
	w.remaining -= n
	if err == nil && w.remaining <= 0 {
		err = errors.New("connection cut")
	}
	return n, err
}

func (w *cutoffWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestFleetRebalanceOnFailure kills one worker's first record stream mid
// batch and proves the batch rebalances: detection completes, at least
// one retry is observed, and the report still matches sequential byte for
// byte — no lost and no duplicated runs.
func TestFleetRebalanceOnFailure(t *testing.T) {
	flakyWorker := NewWorkerWithPrograms(2, 8, testPrograms())
	flaky := &cutoffOnce{inner: flakyWorker.Handler()}
	flakySrv := httptest.NewServer(flaky)
	t.Cleanup(flakySrv.Close)
	steady := NewWorkerWithPrograms(2, 8, testPrograms())
	steadySrv := httptest.NewServer(steady.Handler())
	t.Cleanup(steadySrv.Close)

	fleet, err := NewFleet([]string{flakySrv.URL, steadySrv.URL}, Options{
		BatchSize:     8,
		ProbeInterval: 10 * time.Millisecond,
		ResultTimeout: 30 * time.Second,
		StallTimeout:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	prog := func() cuda.Program { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)) }
	inputs := [][]byte{[]byte("0123456789abcdef"), []byte("fedcba9876543210")}

	var retries atomic.Int64
	want := reportJSON(t, detectSequential(t, detectOpts(), prog(), inputs, gpucrypto.KeyGen()))
	got := reportJSON(t, detectFleet(t, fleet, detectOpts(), prog(), inputs, gpucrypto.KeyGen(), func(string) {
		retries.Add(1)
	}))
	if flaky.cut.Load() == 0 {
		t.Fatal("the flaky worker never truncated a batch; failure path untested")
	}
	if retries.Load() == 0 {
		t.Error("no retry observed despite a truncated batch")
	}
	if !bytes.Equal(want, got) {
		t.Errorf("post-rebalance report differs from sequential:\nseq: %s\ngot: %s", want, got)
	}
}

// renamed masks a program's registry name so workers reject its batches.
type renamed struct{ cuda.Program }

func (renamed) Name() string { return "no/such-program" }

// TestFleetPermanentErrorFailsFast: a program error reported by a worker
// must fail the detection, not retry forever on other nodes.
func TestFleetPermanentErrorFailsFast(t *testing.T) {
	fleet, _ := startWorkers(t, 2, Options{BatchSize: 4})
	opts := detectOpts()
	opts.Runner = fleet.Runner(RunnerConfig{})
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The registry doesn't know this name, so every batch is rejected
	// with 400 — a permanent error.
	_, err = det.Detect(renamed{gpucrypto.NewAES(gpucrypto.WithBlocks(4))}, [][]byte{[]byte("0123456789abcdef")}, gpucrypto.KeyGen())
	if err == nil {
		t.Fatal("unknown-program batch succeeded")
	}
	if !strings.Contains(err.Error(), "unknown program") {
		t.Errorf("error does not surface the worker rejection: %v", err)
	}
}

// failOnThree is a program whose run fails when its input is {3}.
type failOnThree struct{}

func (failOnThree) Name() string { return "fail-on-three" }

func (failOnThree) Run(ctx *cuda.Context, input []byte) error {
	if input[0] == 3 {
		return errors.New("boom")
	}
	_, err := ctx.Malloc(4)
	return err
}

// TestWorkerShipsFailingRunIndex posts a batch whose third run fails: the
// stream must end with one error result that names that run's
// coordinator index and carries the record error's text.
func TestWorkerShipsFailingRunIndex(t *testing.T) {
	w := NewWorkerWithPrograms(1, 0, map[string]cuda.Program{"fail-on-three": failOnThree{}})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	br := BatchRequest{Protocol: ProtocolVersion, Program: "fail-on-three", Device: detectOpts().Device}
	for i := 1; i <= 4; i++ {
		br.Reqs = append(br.Reqs, WireRequest{Index: 10 + i, Input: []byte{byte(i)}, Seed: int64(i)})
	}
	body, err := json.Marshal(br)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/record", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var results []WireResult
	dec := gob.NewDecoder(resp.Body)
	for {
		var res WireResult
		if err := dec.Decode(&res); err != nil {
			break
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		t.Fatal("empty result stream")
	}
	last := results[len(results)-1]
	if last.Index != 13 || last.Err != "core: program fail-on-three: boom" {
		t.Fatalf("last result = index %d, error %q; want run 13's record error", last.Index, last.Err)
	}
	for _, res := range results[:len(results)-1] {
		if res.Err != "" || res.Index >= 13 {
			t.Errorf("unexpected result before the failure: index %d, error %q", res.Index, res.Err)
		}
	}
}

func TestWorkerReadiness(t *testing.T) {
	w := NewWorkerWithPrograms(3, 4, nil)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	var rd Readiness
	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	if !rd.Ready() || rd.Slots != 3 || rd.IdleSlots != 3 || rd.ActiveSlots != 0 || rd.QueueDepth != 0 {
		t.Errorf("idle readiness = %+v", rd)
	}

	w.SetDraining(true)
	resp, err = http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if rd.Ready() || rd.Status != "draining" {
		t.Errorf("draining readiness = %+v", rd)
	}
}

// TestWorkerServesOnlyV1 checks the worker API lives under /v1 alone:
// an unversioned path is not an alias for its /v1 route.
func TestWorkerServesOnlyV1(t *testing.T) {
	srv := httptest.NewServer(NewWorkerWithPrograms(1, 0, nil).Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /readyz = %d, want 404", resp.StatusCode)
	}
}

func TestWorkerRejectsBadBatches(t *testing.T) {
	w := NewWorkerWithPrograms(1, 0, testPrograms())
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/record", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(`{"protocol":99,"program":"libgpucrypto/aes128"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("version mismatch = %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"protocol":1,"program":"no/such"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown program = %d, want 400", resp.StatusCode)
	}
	if resp := post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body = %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"protocol":1,"program":"libgpucrypto/aes128","device":{}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero device = %d, want 400", resp.StatusCode)
	}
}

// TestSharedReportCache exercises the content-addressed cache end to end:
// fingerprint, miss, fill on every node, hit from any node.
func TestSharedReportCache(t *testing.T) {
	fleet, servers := startWorkers(t, 2, Options{})
	ctx := context.Background()

	prog := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	inputs := [][]byte{[]byte("0123456789abcdef")}
	key, err := Fingerprint(ctx, prog, inputs, detectOpts())
	if err != nil {
		t.Fatal(err)
	}
	key2, err := Fingerprint(ctx, gpucrypto.NewAES(gpucrypto.WithBlocks(16)), inputs, detectOpts())
	if err != nil {
		t.Fatal(err)
	}
	if key != key2 {
		t.Error("fingerprint unstable across identical program instances")
	}
	other := detectOpts()
	other.Seed++
	if key3, err := Fingerprint(ctx, prog, inputs, other); err != nil || key3 == key {
		t.Errorf("fingerprint ignores options (err=%v)", err)
	}

	if _, ok := fleet.CacheGet(ctx, key); ok {
		t.Fatal("hit before fill")
	}
	rep := &core.Report{Program: prog.Name(), Inputs: 1, Classes: 1}
	fleet.CachePut(ctx, key, rep)
	got, ok := fleet.CacheGet(ctx, key)
	if !ok {
		t.Fatal("miss after fill")
	}
	if got.Program != rep.Program || got.Classes != rep.Classes {
		t.Errorf("cache round-trip mangled the report: %+v", got)
	}

	// CachePut fills every node, so a hit must survive losing one.
	servers[0].Close()
	if _, ok := fleet.CacheGet(ctx, key); !ok {
		t.Error("cache hit lost with one node down")
	}
}

// TestWorkQueueStealsAndRequeues pins the dispatch-policy basics without
// HTTP: front-ordered take, bounded sizing, front requeue.
func TestWorkQueueStealsAndRequeues(t *testing.T) {
	reqs := make([]core.RunRequest, 10)
	for i := range reqs {
		reqs[i] = core.RunRequest{Index: i}
	}
	q := newWorkQueue(reqs)

	seg, ok := q.take(4)
	if !ok || len(seg.reqs) != 4 || seg.reqs[0].Index != 0 {
		t.Fatalf("first take = %+v ok=%v", seg, ok)
	}
	seg2, ok := q.take(100)
	if !ok || len(seg2.reqs) != 6 || seg2.reqs[0].Index != 4 {
		t.Fatalf("second take = %+v ok=%v", seg2, ok)
	}

	// A failed batch re-enters at the front and is the next thing stolen.
	seg.attempt, seg.lastWorker = 1, "w1"
	q.requeue(seg)
	seg3, ok := q.take(2)
	if !ok || seg3.reqs[0].Index != 0 || seg3.attempt != 1 || seg3.lastWorker != "w1" {
		t.Fatalf("requeued take = %+v ok=%v", seg3, ok)
	}

	q.close()
	if _, ok := q.take(1); ok {
		// The remaining requeued half is still there; close only unblocks
		// waiters once the queue drains.
		t.Log("take after close returned work (remaining requeued half)")
	}
}

// TestWorkQueueCloseUnblocks proves close releases blocked takers.
func TestWorkQueueCloseUnblocks(t *testing.T) {
	q := newWorkQueue(nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, ok := q.take(1); ok {
			t.Error("take on an empty closed queue reported work")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	wg.Wait()
}

// TestDeliveryRejectsDuplicates pins the exactly-once guarantee at its
// enforcement point.
func TestDeliveryRejectsDuplicates(t *testing.T) {
	d := newDelivery(3)
	if err := d.put(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.put(1, nil); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := d.put(7, nil); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestVersionErrorMentionsBothVersions(t *testing.T) {
	err := versionError(9)
	for _, want := range []string{"9", fmt.Sprint(ProtocolVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version error %q omits %s", err, want)
		}
	}
}
