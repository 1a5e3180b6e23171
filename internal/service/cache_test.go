package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"owl/internal/cluster"
	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/trace"
)

// TestCacheKeySensitivity checks the manager's report-cache key,
// cluster.Fingerprint: the program and every option that shapes a report
// move it, and the recording strategy does not.
func TestCacheKeySensitivity(t *testing.T) {
	prog := &probeProgram{}
	key := func(p cuda.Program, opts core.Options) string {
		t.Helper()
		k, err := cluster.Fingerprint(context.Background(), p, [][]byte{{1}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := core.DefaultOptions()
	k := key(prog, base)
	if key(renamedProbe{prog}, base) == k {
		t.Error("program name not in key")
	}
	changed := base
	changed.Seed++
	if key(prog, changed) == k {
		t.Error("seed not in key")
	}
	changed = base
	changed.FixedRuns++
	if key(prog, changed) == k {
		t.Error("fixed runs not in key")
	}
	// The cost channel changes the recorded traces (cost sites join the
	// canonical encoding), so a cost job must never hit an adcfg-only
	// cached report — and vice versa.
	changed = base
	changed.Evidence.Mode = core.EvidenceBoth
	changed.Evidence.Channels = []string{core.ChannelADCFG, core.ChannelCost}
	costKey := key(prog, changed)
	if costKey == k {
		t.Error("evidence channels not in key")
	}
	changed.Evidence.Channels = []string{core.ChannelADCFG}
	if key(prog, changed) == costKey {
		t.Error("channel list content not in key")
	}
	// Workers and Runner do not influence results, so they must not
	// influence the key either.
	concurrent := base
	concurrent.Workers = 8
	concurrent.Runner = NewPool(2).Runner(nil)
	if key(prog, concurrent) != k {
		t.Error("recording strategy leaked into the cache key")
	}
}

// TestPoolOrderAndBound checks every trace streams to the sink exactly
// once while concurrency stays within the pool bound, and that a
// reorder-window sink restores request order.
func TestPoolOrderAndBound(t *testing.T) {
	pool := NewPool(3)
	runner := pool.Runner(nil)

	reqs := make([]core.RunRequest, 16)
	for i := range reqs {
		reqs[i] = core.RunRequest{Index: i, Input: []byte{byte(i)}, Seed: int64(i + 1)}
	}
	prog := &probeProgram{}
	var (
		mu     sync.Mutex
		order  []int
		traces []*trace.ProgramTrace
	)
	sink := core.OrderedSink(len(reqs), func(i int, tr *trace.ProgramTrace) error {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, i)
		traces = append(traces, tr)
		return nil
	})
	if err := runner.RecordStream(context.Background(), prog, reqs, testRecipe, sink); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(reqs) {
		t.Fatalf("%d traces for %d requests", len(traces), len(reqs))
	}
	for i, tr := range traces {
		if order[i] != i {
			t.Fatalf("sink consumed index %d at position %d", order[i], i)
		}
		if tr == nil || len(tr.Allocs) != 1 || tr.Allocs[0].Words != int64(i+1) {
			t.Fatalf("trace %d missing or out of order", i)
		}
	}
	if p := prog.peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds pool bound 3", p)
	}
}

// TestPoolCancellation verifies a canceled stream returns promptly with
// the context error and never reaches the sink.
func TestPoolCancellation(t *testing.T) {
	pool := NewPool(1)
	runner := pool.Runner(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []core.RunRequest{{Index: 0, Input: []byte{0}}, {Index: 1, Input: []byte{1}}}
	var delivered atomic.Int64
	sink := func(ctx context.Context, res core.RunResult) error {
		delivered.Add(1)
		return nil
	}
	if err := runner.RecordStream(ctx, &probeProgram{}, reqs, testRecipe, sink); err == nil {
		t.Fatal("canceled stream returned no error")
	}
	if n := delivered.Load(); n != 0 {
		t.Errorf("canceled stream delivered %d traces", n)
	}
}

// testRecipe records on the default device, as a detector would.
var testRecipe = core.Recipe{Device: gpu.DefaultConfig(), Rebase: true}

// probeProgram launches no kernel: each run tracks the pool's peak
// concurrency, holds its slot for a millisecond, and allocates input[0]+1
// words, so a trace names the request it was recorded for.
type probeProgram struct{ inFlight, peak atomic.Int64 }

func (p *probeProgram) Name() string { return "probe" }

func (p *probeProgram) Run(ctx *cuda.Context, input []byte) error {
	n := p.inFlight.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	p.inFlight.Add(-1)
	_, err := ctx.Malloc(int64(input[0]) + 1)
	return err
}

// renamedProbe is probeProgram under another name.
type renamedProbe struct{ *probeProgram }

func (renamedProbe) Name() string { return "probe2" }
