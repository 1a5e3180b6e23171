package cluster

// N-process end-to-end coverage: a real owlworker fleet (separate OS
// processes, no docker) must produce reports byte-identical to
// single-process detection, and survive losing a worker to SIGKILL in the
// middle of a job with no lost or duplicated runs. CI's cluster-smoke job
// runs exactly these tests.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"owl/internal/core"
	"owl/internal/experiments"
	"owl/internal/obs"
)

// buildOwlworker compiles the worker binary into the test's temp dir.
func buildOwlworker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "owlworker")
	args := []string{"build"}
	if raceEnabled {
		// Match the test binary's instrumentation so worker and
		// coordinator run at comparable speed; see race_on_test.go.
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "./cmd/owlworker")
	cmd := exec.Command("go", args...)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/owlworker: %v\n%s", err, out)
	}
	return bin
}

var listenRE = regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)

// workerProc is one spawned owlworker OS process.
type workerProc struct {
	cmd  *exec.Cmd
	addr string // base URL
}

// kill SIGKILLs the process — the crash the rebalance path exists for.
func (p *workerProc) kill() { _ = p.cmd.Process.Kill() }

// startWorkerProc spawns one owlworker on an ephemeral port, parses the
// bound address off its log, and waits until /readyz answers 200.
func startWorkerProc(t *testing.T, bin string, slots int) *workerProc {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-slots", fmt.Sprint(slots))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("owlworker never logged its listen address")
	}

	p := &workerProc{cmd: cmd, addr: "http://" + addr}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.addr + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("owlworker at %s never became ready: %v", p.addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// e2eTargets returns the full-suite aes128 and rsa workloads — the same
// registry entries the spawned workers serve.
func e2eTargets(t *testing.T) []experiments.Target {
	t.Helper()
	all, err := experiments.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	var out []experiments.Target
	for _, tgt := range all {
		switch tgt.Program.Name() {
		case "libgpucrypto/aes128", "libgpucrypto/rsa":
			out = append(out, tgt)
		}
	}
	if len(out) != 2 {
		t.Fatalf("full suite is missing the crypto workloads: %d found", len(out))
	}
	return out
}

// detectLocal4 is the single-process reference: workers=4, the
// configuration the acceptance criteria pin the cluster against.
func detectLocal4(t *testing.T, tgt experiments.Target) *core.Report {
	t.Helper()
	opts := detectOpts()
	opts.Workers = 4
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := det.Detect(tgt.Program, tgt.Inputs, tgt.Gen)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestE2EClusterEquivalence spawns a 3-process owlworker fleet and proves
// aes128 and rsa cluster reports serialize byte-identically to workers=4
// single-process detection.
func TestE2EClusterEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: builds a binary and spawns worker processes")
	}
	bin := buildOwlworker(t)
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = startWorkerProc(t, bin, 2).addr
	}
	fleet, err := NewFleet(addrs, Options{BatchSize: 4, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range e2eTargets(t) {
		t.Run(tgt.Program.Name(), func(t *testing.T) {
			want := reportJSON(t, detectLocal4(t, tgt))
			got := reportJSON(t, detectFleet(t, fleet, detectOpts(), tgt.Program, tgt.Inputs, tgt.Gen, nil))
			if !bytes.Equal(want, got) {
				t.Errorf("cluster report differs from workers=4 single-process:\nlocal:   %s\ncluster: %s", want, got)
			}
			if !bytes.Contains(want, []byte(`"Leaks":[{`)) {
				t.Error("reference report found no leaks; equivalence is vacuous")
			}
		})
	}
}

// TestE2EFleetTrace runs a traced aes128 detection over a real 3-process
// owlworker fleet and validates the merged timeline: a single Chrome
// trace whose dispatch spans parent worker-side run spans from at
// least two distinct worker processes (the third may legitimately see no
// batches on a small job), all passing the trace-event invariants.
func TestE2EFleetTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: builds a binary and spawns worker processes")
	}
	bin := buildOwlworker(t)
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = startWorkerProc(t, bin, 2).addr
	}
	fleet, err := NewFleet(addrs, Options{BatchSize: 4, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var tgt experiments.Target
	for _, cand := range e2eTargets(t) {
		if cand.Program.Name() == "libgpucrypto/aes128" {
			tgt = cand
		}
	}

	opts := detectOpts()
	opts.Runner = fleet.Runner(RunnerConfig{})
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 14)
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := det.DetectContext(ctx, tgt.Program, tgt.Inputs, tgt.Gen); err != nil {
		t.Fatal(err)
	}

	spans, counters := rec.Snapshot()
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	procs := make(map[string]bool)
	for _, s := range spans {
		if s.Name != "run" {
			continue
		}
		procs[s.Proc] = true
		parent, ok := byID[s.Parent]
		if !ok || parent.Name != "cluster.dispatch" {
			t.Fatalf("worker run span not parented under a dispatch span (parent %d)", s.Parent)
		}
	}
	if len(procs) < 2 {
		t.Fatalf("worker spans from %d worker process(es), want >= 2", len(procs))
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans, counters); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("merged e2e fleet trace invalid: %v", err)
	}
	events, err := obs.DecodeChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pids := make(map[int]bool)
	for _, ev := range events {
		if ev.Ph == "B" {
			pids[ev.PID] = true
		}
	}
	if len(pids) < 3 {
		t.Fatalf("export spans %d pids, want >= 3 (coordinator + >= 2 workers)", len(pids))
	}
}

// killOnStream is the coordinator's HTTP transport in the kill test: the
// first record stream to open — its response headers are in, none of its
// runs can have finished yet — SIGKILLs the worker serving it.
type killOnStream struct {
	once sync.Once
	kill func(addr string)
}

func (k *killOnStream) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.Method == http.MethodPost && req.URL.Path == "/v1/record" {
		k.once.Do(func() { k.kill("http://" + req.URL.Host) })
	}
	return resp, err
}

// TestE2EKillWorkerMidJob SIGKILLs one of three workers in the middle of
// a batch. The coordinator must rebalance the dead worker's batch onto
// the survivors with no run lost or double-counted, and the final report
// must still match single-process byte for byte. The victim is the first
// worker whose record stream opens, killed as the stream opens; the
// target is mea/mlp-inference, whose runs take about 15 ms each, so the
// victim still has every run of its batch unfinished when the kill lands
// and the broken stream forces a rebalance.
func TestE2EKillWorkerMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: builds a binary and spawns worker processes")
	}
	bin := buildOwlworker(t)
	tgt, err := experiments.FindTarget("mea/mlp-inference")
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, detectLocal4(t, tgt))

	addrs := make([]string, 3)
	byAddr := make(map[string]*workerProc, 3)
	for i := range addrs {
		p := startWorkerProc(t, bin, 4)
		addrs[i] = p.addr
		byAddr[p.addr] = p
	}
	var (
		killed  atomic.Value // string: the victim's address
		retries atomic.Int64
	)
	transport := &killOnStream{kill: func(addr string) {
		killed.Store(addr)
		byAddr[addr].kill()
	}}
	fleet, err := NewFleet(addrs, Options{
		BatchSize:     4,
		ProbeInterval: 50 * time.Millisecond,
		ResultTimeout: 30 * time.Second,
		StallTimeout:  2 * time.Minute,
		Client:        &http.Client{Transport: transport},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := detectOpts()
	opts.Runner = fleet.Runner(RunnerConfig{OnRetry: func(string) { retries.Add(1) }})
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := det.Detect(tgt.Program, tgt.Inputs, tgt.Gen)
	if err != nil {
		t.Fatalf("detection did not survive the worker kill: %v", err)
	}
	if killed.Load() == nil {
		t.Fatal("no worker was killed; the scenario never exercised the crash path")
	}
	t.Logf("killed %s as its first batch opened; %d batch retries", killed.Load(), retries.Load())
	if retries.Load() == 0 {
		t.Error("the kill forced no rebalance")
	}
	if got := reportJSON(t, rep); !bytes.Equal(want, got) {
		t.Errorf("post-crash report differs from single-process:\nlocal:   %s\ncluster: %s", want, got)
	}
}
