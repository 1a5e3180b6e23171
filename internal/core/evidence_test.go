package core

import (
	"testing"

	"owl/internal/adcfg"
	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/trace"
	"owl/internal/workloads/dummy"
)

// mkInvocation builds a minimal invocation for alignment tests.
func mkInvocation(stackID string, blocks []int) *trace.Invocation {
	g := adcfg.NewGraph("k")
	f := adcfg.NewWarpFolder(g, nil)
	for _, b := range blocks {
		f.EnterBlock(b)
	}
	f.Finish()
	return &trace.Invocation{StackID: stackID, Kernel: "k", Graph: g}
}

func mkRun(stacks ...string) *trace.ProgramTrace {
	tr := &trace.ProgramTrace{Program: "p"}
	for _, s := range stacks {
		tr.Invocations = append(tr.Invocations, mkInvocation(s, []int{0, 1}))
	}
	return tr
}

func TestEvidenceAlignsInsertedInvocation(t *testing.T) {
	ev := evidence.NewDiff()
	ev.AddRun(mkRun("a", "c"))
	ev.AddRun(mkRun("a", "b", "c")) // "b" appears only in run 2
	if len(ev.Invs) != 3 {
		t.Fatalf("invs = %d, want 3", len(ev.Invs))
	}
	byStack := make(map[string]*evidence.InvEvidence)
	for _, inv := range ev.Invs {
		byStack[inv.StackID] = inv
	}
	// Order must interleave: a, b, c.
	if ev.Invs[0].StackID != "a" || ev.Invs[1].StackID != "b" || ev.Invs[2].StackID != "c" {
		t.Errorf("order = %v %v %v", ev.Invs[0].StackID, ev.Invs[1].StackID, ev.Invs[2].StackID)
	}
	if p := byStack["b"].Presence; len(p) != 2 || p[0] != 0 || p[1] != 1 {
		t.Errorf("b presence = %v", p)
	}
	if p := byStack["a"].Presence; len(p) != 2 || p[0] != 1 || p[1] != 1 {
		t.Errorf("a presence = %v", p)
	}
}

func TestEvidenceAbsentInvocationKeepsZeros(t *testing.T) {
	ev := evidence.NewDiff()
	ev.AddRun(mkRun("a", "b"))
	ev.AddRun(mkRun("a")) // "b" missing from run 2
	ev.AddRun(mkRun("a", "b"))
	byStack := make(map[string]*evidence.InvEvidence)
	for _, inv := range ev.Invs {
		byStack[inv.StackID] = inv
	}
	if p := byStack["b"].Presence; len(p) != 3 || p[0] != 1 || p[1] != 0 || p[2] != 1 {
		t.Errorf("b presence = %v", p)
	}
	// b's transition samples count only the two present runs.
	pairs := byStack["b"].Sites.Block(0).Pairs
	if len(pairs) != 1 || pairs[0].Pair != (adcfg.PairKey{Src: adcfg.Start, Dst: 1}) {
		t.Fatalf("b pairs through block 0 = %v", pairs)
	}
	if xs := pairs[0].Rec; len(xs) != 3 || xs[0] != 1 || xs[1] != 0 || xs[2] != 1 {
		t.Errorf("b samples of (START, 1) through block 0 = %v", xs)
	}
}

func TestEvidenceMemSamplesTrackRuns(t *testing.T) {
	o := DefaultOptions()
	o.FixedRuns, o.RandomRuns = 5, 5
	d, err := NewDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	ev := evidence.NewDiff()
	for i := 0; i < 4; i++ {
		tr, err := d.RecordOnce(dummy.New(), []byte{byte(i), 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		ev.AddRun(tr)
	}
	if len(ev.Invs) != 1 {
		t.Fatalf("invs = %d", len(ev.Invs))
	}
	records := 0
	for b, blk := range ev.Invs[0].Sites {
		for j, visit := range blk.Mems {
			for m, f := range visit {
				if f == nil {
					continue
				}
				records++
				key := evidence.MemKey{Block: b, Visit: j, Mem: m}
				if f.Runs() != 4 {
					t.Errorf("mem %v present in %d runs, want 4", key, f.Runs())
				}
				if len(f.Spreads) != len(f.Means) {
					t.Errorf("mem %v: %d spreads vs %d means", key, len(f.Spreads), len(f.Means))
				}
			}
		}
	}
	if records == 0 {
		t.Fatal("no memory records")
	}
}

// TestHistSummary checks the per-run mean/spread feature the evidence
// merge derives from each address histogram, and that an empty histogram
// (every lane predicated off) gets a record with no runs.
func TestHistSummary(t *testing.T) {
	g := adcfg.NewGraph("k")
	f := adcfg.NewWarpFolder(g, nil)
	f.EnterBlock(0)
	f.MemAccess(0, isa.SpaceGlobal, false, []int64{10, 20, 20, 20})
	f.Finish()
	g.Nodes[0].Visits[0].Mems = append(g.Nodes[0].Visits[0].Mems, &adcfg.MemHist{Space: isa.SpaceShared, Store: true})
	ev := evidence.NewDiff()
	ev.AddRun(&trace.ProgramTrace{Invocations: []*trace.Invocation{{StackID: "s", Kernel: "k", Graph: g}}})
	inv := ev.Invs[0]
	if mems := inv.Sites.Block(0).Mems; len(mems) != 1 || len(mems[0]) != 2 {
		t.Fatalf("records = %v, want two", mems)
	}
	feat := inv.Sites.Mem(evidence.MemKey{Block: 0, Visit: 0, Mem: 0})
	if feat == nil || feat.Runs() != 1 {
		t.Fatalf("record = %+v", feat)
	}
	if mean := feat.Means[0]; mean != (10+60)/4.0 {
		t.Errorf("mean = %v", mean)
	}
	if spread := feat.Spreads[0]; spread != 10 {
		t.Errorf("spread = %v", spread)
	}
	if cells := feat.Hist.Cells(); len(cells) != 2 || cells[1] != (adcfg.Cell{Addr: 20, Count: 3}) {
		t.Errorf("merged cells = %v", cells)
	}
	empty := inv.Sites.Mem(evidence.MemKey{Block: 0, Visit: 0, Mem: 1})
	if empty == nil || empty.Runs() != 0 || len(empty.Hist.Cells()) != 0 || empty.Space != isa.SpaceShared || !empty.Store {
		t.Errorf("empty-histogram record = %+v", empty)
	}
}

// nondetLaunch launches 1 or 2 kernels depending on host randomness, not
// the input: the kernel-presence KS test must not flag it.
type nondetLaunch struct {
	kernel *isa.Kernel
}

func newNondetLaunch() *nondetLaunch {
	b := kbuild.New("maybe", 1)
	tid := b.Tid()
	b.Store(isa.SpaceGlobal, b.Add(b.Param(0), tid), 0, tid)
	b.Ret()
	return &nondetLaunch{kernel: b.MustBuild()}
}

func (p *nondetLaunch) Name() string { return "nondet-launch" }

func (p *nondetLaunch) Run(ctx *cuda.Context, input []byte) error {
	ptr, err := ctx.Malloc(64)
	if err != nil {
		return err
	}
	if err := ctx.Launch(p.kernel, gpu.D1(1), gpu.D1(32), int64(ptr)); err != nil {
		return err
	}
	if ctx.Rand().Intn(2) == 0 {
		// An input-independent coin flip adds a second launch.
		return ctx.Call("retry", func() error {
			return ctx.Launch(p.kernel, gpu.D1(1), gpu.D1(32), int64(ptr))
		})
	}
	return nil
}

func TestNondeterministicLaunchNotAKernelLeak(t *testing.T) {
	o := testOptions()
	o.FixedRuns, o.RandomRuns = 60, 60
	d, err := NewDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Detect(newNondetLaunch(), [][]byte{{1}, {2}}, dummy.Gen(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PotentialLeak {
		t.Skip("coin flips agreed for both user inputs")
	}
	if rep.Count(KernelLeak) != 0 {
		t.Errorf("random extra launch flagged as kernel leak:\n%s", rep.Summary())
	}
}
