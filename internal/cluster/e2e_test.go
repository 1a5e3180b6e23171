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
	"os"
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

// startWorkerProc spawns one owlworker on an ephemeral port, with env
// added to its environment, parses the bound address off its log, and
// waits until /readyz answers 200.
func startWorkerProc(t *testing.T, bin string, slots int, env ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-slots", fmt.Sprint(slots))
	cmd.Env = append(os.Environ(), env...)
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
// trace whose dispatch spans parent worker-side record spans from at
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
		if s.Name != "worker.record" {
			continue
		}
		procs[s.Proc] = true
		parent, ok := byID[s.Parent]
		if !ok || parent.Name != "cluster.dispatch" {
			t.Fatalf("worker.record span not parented under a dispatch span (parent %d)", s.Parent)
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

// killWorkerScenario runs one aes128 detection over a fresh 3-process
// fleet, SIGKILLing whichever worker delivers the first trace. Whatever
// the kill's timing, the report must stay byte-identical to the
// single-process reference — no run lost or double-counted. It returns
// how many batch rebalances the crash forced: zero is possible when the
// victim's remaining results were already in flight to the coordinator
// when the kill landed, so the caller retries the scenario until the
// kill severs a live stream.
func killWorkerScenario(t *testing.T, bin string, tgt experiments.Target, want []byte) int64 {
	t.Helper()
	procs := make([]*workerProc, 3)
	addrs := make([]string, 3)
	byAddr := make(map[string]*workerProc, 3)
	for i := range procs {
		// 4 slots → 4-run batches, so the kill usually lands mid-stream.
		// One OS thread per worker finishes a batch's runs one after
		// another rather than all at once, which keeps the stream open
		// after the first delivery.
		procs[i] = startWorkerProc(t, bin, 4, "GOMAXPROCS=1")
		addrs[i] = procs[i].addr
		byAddr[procs[i].addr] = procs[i]
	}
	fleet, err := NewFleet(addrs, Options{
		BatchSize:     4,
		ProbeInterval: 50 * time.Millisecond,
		ResultTimeout: 30 * time.Second,
		StallTimeout:  2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		killOnce sync.Once
		killed   atomic.Value // string: the victim's address
		retries  atomic.Int64
	)
	opts := detectOpts()
	opts.Runner = fleet.Runner(RunnerConfig{
		OnRun: func(worker string) {
			// First delivery picks the victim: its current batch normally
			// still has undelivered runs in flight, so the SIGKILL severs
			// a live stream and forces a rebalance.
			killOnce.Do(func() {
				killed.Store(worker)
				byAddr[worker].kill()
			})
		},
		OnRetry: func(string) { retries.Add(1) },
	})
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
	t.Logf("killed %s after its first delivery; %d batch retries", killed.Load(), retries.Load())
	if got := reportJSON(t, rep); !bytes.Equal(want, got) {
		t.Errorf("post-crash report differs from single-process:\nlocal:   %s\ncluster: %s", want, got)
	}
	for _, p := range procs {
		p.kill()
	}
	return retries.Load()
}

// TestE2EKillWorkerMidJob SIGKILLs one of three workers mid-aes128. The
// coordinator must rebalance the dead worker's in-flight batch onto the
// survivors and the final report must still match single-process byte
// for byte. Every attempt asserts byte-identity; at least one attempt
// must observe an actual rebalance (the kill can race the stream's tail
// into the coordinator's buffers, in which case the batch completes and
// the scenario reruns).
func TestE2EKillWorkerMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: builds a binary and spawns worker processes")
	}
	bin := buildOwlworker(t)
	var tgt experiments.Target
	for _, cand := range e2eTargets(t) {
		if cand.Program.Name() == "libgpucrypto/aes128" {
			tgt = cand
		}
	}
	want := reportJSON(t, detectLocal4(t, tgt))

	for attempt := 1; attempt <= 4; attempt++ {
		if killWorkerScenario(t, bin, tgt, want) > 0 {
			return
		}
		t.Logf("attempt %d: kill landed after the batch was fully in flight; retrying", attempt)
	}
	t.Error("no rebalance observed across 4 SIGKILLs of active workers")
}
