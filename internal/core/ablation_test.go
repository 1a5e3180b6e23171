package core

import (
	"testing"

	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/workloads/dummy"
)

// noisyProgram accesses a table at a host-drawn random offset every run,
// independent of the secret input — the oblivious-RAM-style
// non-determinism of §III-B ❸. A tool comparing single traces flags it; the
// distribution test must not.
type noisyProgram struct {
	kernel *isa.Kernel
}

func newNoisyProgram() *noisyProgram {
	b := kbuild.New("noisy", 2) // table, offset
	tid := b.Tid()
	table := b.Param(0)
	off := b.Param(1)
	idx := b.And(b.Add(tid, off), b.ConstR(255))
	b.Load(isa.SpaceGlobal, b.Add(table, idx), 0)
	b.Comment("random-offset access (input-independent)")
	b.Ret()
	return &noisyProgram{kernel: b.MustBuild()}
}

func (p *noisyProgram) Name() string { return "noisy" }

func (p *noisyProgram) Run(ctx *cuda.Context, input []byte) error {
	table, err := ctx.Malloc(256)
	if err != nil {
		return err
	}
	// The offset is program non-determinism, not input.
	off := ctx.Rand().Int63n(256)
	return ctx.Launch(p.kernel, gpu.D1(1), gpu.D1(32), int64(table), off)
}

// TestNondeterminismNotFlagged is the paper's false-positive-suppression
// property: random factors vary traces, so the filtering phase sees
// distinct classes, but the distribution test recognizes that fixed and
// random inputs draw from the same distribution and reports no leak.
func TestNondeterminismNotFlagged(t *testing.T) {
	o := testOptions()
	o.FixedRuns, o.RandomRuns = 60, 60
	d, err := NewDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	p := newNoisyProgram()
	rep, err := d.Detect(p, [][]byte{{1}, {2}}, dummy.Gen(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PotentialLeak {
		t.Skip("rng drew identical offsets for both user inputs")
	}
	if len(rep.Leaks) != 0 {
		t.Errorf("non-deterministic accesses flagged as leaks:\n%s", rep.Summary())
	}
}

// TestASLRRebasingAblation: with ASLR on, rebasing keeps duplicate inputs
// in one trace class so the pipeline can stop at phase 2; without
// rebasing, every execution's addresses slide, classing collapses, and the
// expensive analysis phase runs even though the distribution test then
// (correctly) attributes the differences to randomness rather than to the
// input.
func TestASLRRebasingAblation(t *testing.T) {
	leakFree := func() cuda.Program {
		// Deterministic tid-indexed accesses only.
		b := kbuild.New("tidonly", 1)
		tid := b.Tid()
		base := b.Param(0)
		b.Store(isa.SpaceGlobal, b.Add(base, tid), 0, tid)
		b.Ret()
		return &fixedKernelProgram{name: "tidonly", kernel: b.MustBuild()}
	}

	run := func(rebase bool) *Report {
		o := testOptions()
		o.Device.ASLR = true
		o.Rebase = rebase
		d, err := NewDetector(o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Detect(leakFree(), [][]byte{{1}, {2}, {1}}, dummy.Gen(1))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	withRebase := run(true)
	if withRebase.Classes != 1 {
		t.Errorf("rebased classes = %d, want 1 (input-independent traces)", withRebase.Classes)
	}
	if withRebase.PotentialLeak || len(withRebase.Leaks) != 0 {
		t.Errorf("rebased ASLR run reported leaks:\n%s", withRebase.Summary())
	}
	withoutRebase := run(false)
	if withoutRebase.Classes != 3 {
		t.Errorf("raw classes = %d, want 3 (ASLR breaks trace classing)", withoutRebase.Classes)
	}
	if !withoutRebase.PotentialLeak {
		t.Error("without rebasing, phase 2 cannot prove leak-freedom")
	}
	if len(withoutRebase.Leaks) != 0 {
		t.Errorf("ASLR noise misattributed to the input:\n%s", withoutRebase.Summary())
	}
}

// fixedKernelProgram launches one kernel over one warp, ignoring input.
type fixedKernelProgram struct {
	name   string
	kernel *isa.Kernel
}

func (p *fixedKernelProgram) Name() string { return p.name }

func (p *fixedKernelProgram) Run(ctx *cuda.Context, input []byte) error {
	ptr, err := ctx.Malloc(64)
	if err != nil {
		return err
	}
	return ctx.Launch(p.kernel, gpu.D1(1), gpu.D1(32), int64(ptr))
}

// TestWelchAblation reproduces the paper's argument for KS over the
// customary t-test (§VII-B): the t-test only sees mean shifts, so on the
// dummy program — whose fixed-key access distribution is a point mass
// while random keys spread over the table with a similar mean — KS finds
// at least as much as Welch, and typically strictly more.
func TestWelchAblation(t *testing.T) {
	run := func(useWelch bool) *Report {
		o := testOptions()
		o.UseWelch = useWelch
		d, err := NewDetector(o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Detect(dummy.New(), [][]byte{{200, 200, 200}, {1, 1, 1}}, dummy.Gen(3))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ks := run(false)
	welch := run(true)
	if ks.Count(DataFlowLeak) == 0 {
		t.Errorf("KS mode missed the s-box leak:\n%s", ks.Summary())
	}
	if welch.Count(DataFlowLeak) > ks.Count(DataFlowLeak) {
		t.Errorf("Welch found more DF leaks (%d) than KS (%d)",
			welch.Count(DataFlowLeak), ks.Count(DataFlowLeak))
	}
	t.Logf("KS: %d DF leaks; Welch: %d DF leaks", ks.Count(DataFlowLeak), welch.Count(DataFlowLeak))
}

// TestFilterAblation: disabling duplicate filtering analyzes every input
// individually, even identical ones.
func TestFilterAblation(t *testing.T) {
	o := testOptions()
	o.FilterDuplicates = false
	d, err := NewDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	in := []byte{5, 5}
	rep, err := d.Detect(dummy.New(), [][]byte{in, in}, dummy.Gen(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PotentialLeak {
		t.Error("filter-off run skipped analysis")
	}
	// Twice the evidence traces of a single class.
	want := 2 * (o.FixedRuns + o.RandomRuns)
	if rep.Stats.EvidenceTraces != want {
		t.Errorf("evidence traces = %d, want %d", rep.Stats.EvidenceTraces, want)
	}
}

// TestScreenedCollapsesVisits: repeated visits of the same instruction
// collapse to one code location.
func TestScreenedCollapsesVisits(t *testing.T) {
	rep := &Report{}
	leaks := newLeakSet(rep)
	for visit := 0; visit < 4; visit++ {
		leaks.add(Leak{
			Kind: DataFlowLeak, StackID: "s", Block: 1, Visit: visit, MemIndex: 2,
			P: float64(visit+1) * 0.001,
		})
	}
	leaks.add(Leak{Kind: DataFlowLeak, StackID: "s", Block: 1, Visit: 0, MemIndex: 3, P: 0.01})
	if len(rep.Leaks) != 5 {
		t.Fatalf("raw leaks = %d", len(rep.Leaks))
	}
	scr := rep.Screened()
	if len(scr) != 2 {
		t.Fatalf("screened leaks = %d, want 2", len(scr))
	}
	if scr[0].P != 0.001 {
		t.Errorf("screening kept p=%v, want the smallest", scr[0].P)
	}
	if rep.ScreenedCount(DataFlowLeak) != 2 {
		t.Errorf("ScreenedCount = %d", rep.ScreenedCount(DataFlowLeak))
	}
}
