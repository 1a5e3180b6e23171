package tracer

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/trace"
)

// traceProgram launches a kernel that stores tid into an allocated buffer
// and returns its recorded trace.
func traceProgram(t *testing.T, cfg gpu.Config, seed int64, opts ...Option) *traceResult {
	t.Helper()
	tr := New("prog", opts...)
	ctx, err := cuda.NewContext(cfg, rand.New(rand.NewSource(seed)), tr)
	if err != nil {
		t.Fatal(err)
	}
	b := kbuild.New("store_tid", 1)
	tid := b.Tid()
	base := b.Param(0)
	b.Store(isa.SpaceGlobal, b.Add(base, tid), 0, tid)
	b.Ret()
	k := b.MustBuild()
	ptr, err := ctx.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Call("fn", func() error {
		return ctx.Launch(k, gpu.D1(2), gpu.D1(32), int64(ptr))
	}); err != nil {
		t.Fatal(err)
	}
	return &traceResult{tr: tr}
}

type traceResult struct {
	tr *Tracer
}

func TestTracerBuildsADCFG(t *testing.T) {
	res := traceProgram(t, gpu.DefaultConfig(), 1)
	tr := res.tr.Trace()
	if len(tr.Invocations) != 1 {
		t.Fatalf("invocations = %d", len(tr.Invocations))
	}
	inv := tr.Invocations[0]
	if inv.StackID != "main/fn/store_tid" {
		t.Errorf("stack = %q", inv.StackID)
	}
	if inv.Graph.Warps != 2 {
		t.Errorf("warps = %d", inv.Graph.Warps)
	}
	if len(tr.Allocs) != 1 || tr.Allocs[0].Words != 64 {
		t.Errorf("allocs = %v", tr.Allocs)
	}
	// The store histogram must hold 64 offsets with count 1 each.
	var total, distinct int64
	for _, n := range inv.Graph.Nodes {
		for _, v := range n.Visits {
			for _, h := range v.Mems {
				if h == nil {
					continue
				}
				distinct += int64(len(h.Cells))
				total += h.Total()
			}
		}
	}
	if total != 64 || distinct != 64 {
		t.Errorf("accesses: total=%d distinct=%d, want 64/64", total, distinct)
	}
}

func TestRebaseMakesTracesASLRInvariant(t *testing.T) {
	cfg := gpu.DefaultConfig()
	cfg.ASLR = true
	a := traceProgram(t, cfg, 11).tr.Trace()
	b := traceProgram(t, cfg, 999).tr.Trace()
	if a.Hash() != b.Hash() {
		t.Error("rebased traces differ under ASLR")
	}
}

func TestWithoutRebaseASLRBreaksEquality(t *testing.T) {
	cfg := gpu.DefaultConfig()
	cfg.ASLR = true
	a := traceProgram(t, cfg, 11, WithoutRebase()).tr.Trace()
	b := traceProgram(t, cfg, 999, WithoutRebase()).tr.Trace()
	if a.Hash() == b.Hash() {
		t.Error("raw traces identical despite ASLR slides (seeds collided?)")
	}
}

func TestRebaseEncodesAllocationIDs(t *testing.T) {
	tr := New("p")
	tr.OnAlloc(gpu.AllocRecord{ID: 0, Base: 1000, Words: 10}, "site")
	tr.OnAlloc(gpu.AllocRecord{ID: 1, Base: 2000, Words: 10}, "site")
	rebaser := tr.rebaser()
	rebase := func(space isa.Space, addr int64) uint64 {
		var key [1]uint64
		rebaser(space, []int64{addr}, key[:])
		return key[0]
	}
	if got := rebase(isa.SpaceGlobal, 1003); got != uint64(1)<<40|3 {
		t.Errorf("alloc0 offset = %#x", got)
	}
	if got := rebase(isa.SpaceGlobal, 2009); got != uint64(2)<<40|9 {
		t.Errorf("alloc1 offset = %#x", got)
	}
	// Outside any allocation: marked raw.
	if got := rebase(isa.SpaceGlobal, 500); got != uint64(500)|1<<63 {
		t.Errorf("unowned address = %#x", got)
	}
	// Non-global spaces pass through.
	if got := rebase(isa.SpaceShared, 7); got != 7 {
		t.Errorf("shared address = %#x", got)
	}
	if got := rebase(isa.SpaceConstant, 42); got != 42 {
		t.Errorf("constant address = %#x", got)
	}
}

// TestRebaseLaneVector checks the lane rebaser, which reuses one lane's
// allocation bounds for the next lanes, against the per-address formula
// on warps whose lanes straddle two allocations, the gap between them and
// the unowned addresses below and above, in ascending and shuffled order.
func TestRebaseLaneVector(t *testing.T) {
	allocs := []gpu.AllocRecord{
		{ID: 0, Base: 1000, Words: 10},
		{ID: 1, Base: 1016, Words: 8},
		{ID: 2, Base: 1024, Words: 4}, // adjacent to allocation 1
	}
	want := func(a int64) uint64 {
		for _, al := range allocs {
			if a >= al.Base && a < al.Base+al.Words {
				return uint64(al.ID+1)<<40 | uint64(a-al.Base)
			}
		}
		return uint64(a) | 1<<63
	}
	tr := New("p")
	for _, al := range []gpu.AllocRecord{allocs[2], allocs[0], allocs[1]} {
		tr.OnAlloc(al, "site")
	}
	rebase := tr.rebaser()

	var ascending []int64
	for a := int64(990); a < 1036; a++ {
		ascending = append(ascending, a)
	}
	warps := [][]int64{ascending[:32], ascending[14:], {5, 1003, -7, 1017, 1009, 1010, 1029, 1 << 50}}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2; i++ {
		shuffled := slices.Clone(ascending[i*14 : i*14+32])
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		warps = append(warps, shuffled)
	}
	for _, lanes := range warps {
		keys := make([]uint64, len(lanes))
		rebase(isa.SpaceGlobal, lanes, keys)
		for i, a := range lanes {
			if keys[i] != want(a) {
				t.Errorf("lanes %v: lane %d (%d) = %#x, want %#x", lanes, i, a, keys[i], want(a))
			}
		}
		rebase(isa.SpaceShared, lanes, keys)
		for i, a := range lanes {
			if keys[i] != uint64(a) {
				t.Errorf("shared lane %d (%d) = %#x, want it unchanged", i, a, keys[i])
			}
		}
	}
}

// TestWideHistogramsStayCells checks that a traced launch leaves every
// histogram of the trace as current cells, even one far past the small
// pool class (32 cells), for the readers that take Cells as they are:
// Validate, the gob encoding and the statistical engine.
func TestWideHistogramsStayCells(t *testing.T) {
	b := kbuild.New("wide_store", 1)
	gid := b.Tid()
	b.Store(isa.SpaceGlobal, b.Add(b.Param(0), gid), 0, gid)
	b.Ret()
	k := b.MustBuild()
	record := func(blocks int) *trace.ProgramTrace {
		tr := New("prog")
		ctx, err := cuda.NewContext(gpu.DefaultConfig(), rand.New(rand.NewSource(3)), tr)
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := ctx.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Launch(k, gpu.D1(blocks), gpu.D1(80), int64(ptr)); err != nil {
			t.Fatal(err)
		}
		return tr.Trace()
	}
	// Two fixed-regime and two random-regime traces, whose grids differ
	// so every memory site has a distribution.
	e := evidence.NewEngine(evidence.Config{TThreshold: evidence.DefaultTThreshold, MIBins: evidence.DefaultMIBins})
	for i, blocks := range []int{19, 18, 11, 9} {
		tr := record(blocks)
		if h := tr.Invocations[0].Graph.Nodes[0].Visits[0].Mems[0]; i == 0 && len(h.Cells) <= 32 {
			t.Fatalf("fixture histogram holds %d cells, want more than 32", len(h.Cells))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		e.Observe(evidence.Regime(i/2), tr)
		var buf bytes.Buffer
		if err := tr.WriteGob(&buf); err != nil {
			t.Fatal(err)
		}
		rt, err := trace.ReadGob(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Hash() != tr.Hash() {
			t.Fatalf("trace %d: the gob round trip changed the trace", i)
		}
	}
	mem := false
	for _, v := range e.Verdicts() {
		mem = mem || v.Kind == evidence.MemSite
	}
	if !mem {
		t.Fatal("the engine saw no memory site in the traces")
	}
}

func TestMultipleLaunchesSeparateGraphs(t *testing.T) {
	tr := New("p")
	ctx, err := cuda.NewContext(gpu.DefaultConfig(), rand.New(rand.NewSource(1)), tr)
	if err != nil {
		t.Fatal(err)
	}
	b := kbuild.New("noop", 0)
	b.ConstR(1)
	k := b.MustBuild()
	for i := 0; i < 3; i++ {
		if err := ctx.Launch(k, gpu.D1(1), gpu.D1(32)); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.Trace()
	if len(got.Invocations) != 3 {
		t.Fatalf("invocations = %d", len(got.Invocations))
	}
	for i, inv := range got.Invocations {
		if inv.Graph.Warps != 1 {
			t.Errorf("invocation %d warps = %d", i, inv.Graph.Warps)
		}
	}
	if got.Invocations[0].Seq >= got.Invocations[1].Seq {
		t.Error("invocations out of order")
	}
}
