package quantify

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/core"
	"owl/internal/evidence"
	"owl/internal/isa"
	"owl/internal/stats"
	"owl/internal/trace"
	"owl/internal/workloads/gpucrypto"
	"owl/internal/workloads/torch"
)

func newDet(t *testing.T) *core.Detector {
	t.Helper()
	o := core.DefaultOptions()
	o.FixedRuns, o.RandomRuns = 10, 10
	d, err := core.NewDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAESLookupsCarryKeyBits(t *testing.T) {
	det := newDet(t)
	aes := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	rep, err := Quantify(det, aes, []byte("0123456789abcdef"), gpucrypto.KeyGen(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Estimates) == 0 {
		t.Fatal("no estimates")
	}
	top := rep.Top(5)
	// The most distinguishable features must be memory features with
	// substantial entropy reduction: the fixed key pins the table indices.
	foundStrong := false
	for _, e := range top {
		if e.Kind == MemoryFeature && e.EntropyDeltaBits > 1 && e.JSDBits > 0.3 {
			foundStrong = true
		}
	}
	if !foundStrong {
		t.Errorf("no strong memory feature among the top estimates: %+v", top)
	}
}

// TestQuantifyWorkersAgree quantifies aes128 on one recording worker and
// on four: the estimates must be equal, bit for bit.
func TestQuantifyWorkersAgree(t *testing.T) {
	aes := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	var reps []*Report
	for _, workers := range []int{1, 4} {
		o := core.DefaultOptions()
		o.Workers = workers
		det, err := core.NewDetector(o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Quantify(det, aes, []byte("0123456789abcdef"), gpucrypto.KeyGen(), 10)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if len(reps[0].Estimates) == 0 {
		t.Fatal("no estimates")
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Errorf("4-worker estimates differ from sequential:\n1: %+v\n4: %+v", reps[0].Top(3), reps[1].Top(3))
	}
}

func TestConstantExecutionScoresZero(t *testing.T) {
	det := newDet(t)
	relu, err := torch.NewOp(nil, "relu", 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Quantify(det, relu, []byte{1, 2, 3, 4}, torch.GenBytes(4), 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxJSD() > 1e-9 {
		t.Errorf("relu scored %v JSD bits; expected 0 (constant execution)", rep.MaxJSD())
	}
}

func TestEntropyProperties(t *testing.T) {
	uniform := dist{{1, 0.25}, {2, 0.25}, {3, 0.25}, {4, 0.25}}
	if h := entropy(uniform); math.Abs(h-2) > 1e-12 {
		t.Errorf("H(uniform4) = %v, want 2", h)
	}
	point := dist{{7, 1}}
	if h := entropy(point); h != 0 {
		t.Errorf("H(point) = %v", h)
	}
}

func TestJSDProperties(t *testing.T) {
	p := dist{{1, 0.5}, {2, 0.5}}
	if d := jsd(p, p); math.Abs(d) > 1e-12 {
		t.Errorf("JSD(p,p) = %v", d)
	}
	q := dist{{3, 0.5}, {4, 0.5}}
	if d := jsd(p, q); math.Abs(d-1) > 1e-12 {
		t.Errorf("JSD(disjoint) = %v, want 1", d)
	}
	// Symmetry.
	r := dist{{1, 0.9}, {2, 0.1}}
	if math.Abs(jsd(p, r)-jsd(r, p)) > 1e-12 {
		t.Error("JSD not symmetric")
	}
	// Bounded.
	if d := jsd(p, r); d < 0 || d > 1 {
		t.Errorf("JSD out of range: %v", d)
	}
}

func TestDistFromHist(t *testing.T) {
	d := distFromHist([]adcfg.Cell{{Addr: 10, Count: 3}, {Addr: 20, Count: 1}})
	if len(d) != 2 || d[0] != (mass{10, 0.75}) || d[1] != (mass{20, 0.25}) {
		t.Errorf("dist = %v", d)
	}
	if len(distFromHist(nil)) != 0 {
		t.Error("empty histogram produced mass")
	}
}

func TestDistFromPairsEncodesNegatives(t *testing.T) {
	runs := func(xs ...float64) (c stats.Counted) {
		for _, x := range xs {
			c.Add(x, 1, 0)
		}
		return c
	}
	d := distFromPairs([]evidence.PairRecord[stats.Counted]{
		{Pair: adcfg.PairKey{Src: adcfg.Start, Dst: 1}, Rec: runs(1, 0)},
		{Pair: adcfg.PairKey{Src: 1, Dst: adcfg.End}, Rec: runs(0, 1)},
	})
	if len(d) != 2 || d[0].sym >= d[1].sym {
		t.Errorf("virtual block ids collided or out of order: %v", d)
	}
}

func TestQuantifyValidation(t *testing.T) {
	det := newDet(t)
	aes := gpucrypto.NewAES(gpucrypto.WithBlocks(2))
	if _, err := Quantify(det, aes, []byte("k"), nil, 10); err == nil {
		t.Error("nil gen accepted")
	}
	if _, err := Quantify(det, aes, []byte("k"), gpucrypto.KeyGen(), 1); err == nil {
		t.Error("runs=1 accepted")
	}
}

func TestEstimateLocation(t *testing.T) {
	m := Estimate{Kind: MemoryFeature, StackID: "s", Block: 2, Visit: 1, MemIndex: 3}
	if m.Location() != "s:B2:v1:mem3" {
		t.Errorf("Location = %q", m.Location())
	}
	c := Estimate{Kind: TransitionFeature, StackID: "s", Block: 4}
	if c.Location() != "s:B4" {
		t.Errorf("Location = %q", c.Location())
	}
}

// TestFromEvidenceDeterministic scores the same evidence repeatedly: every
// estimate must keep its bit pattern and its place in the order, which
// needs sums in one symbol order and a total tie-break on equal scores.
func TestFromEvidenceDeterministic(t *testing.T) {
	det := newDet(t)
	aes := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	eFix, eRnd := evidence.NewDiff(10), evidence.NewDiff(10)
	gen, rng := gpucrypto.KeyGen(), rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		for _, in := range []struct {
			ev  *evidence.Diff
			key []byte
		}{{eFix, []byte("0123456789abcdef")}, {eRnd, gen(rng)}} {
			tr, err := det.RecordOnce(aes, in.key)
			if err != nil {
				t.Fatal(err)
			}
			in.ev.AddRun(tr)
		}
	}
	first := FromEvidence("aes", eFix, eRnd).Estimates
	if len(first) == 0 {
		t.Fatal("no estimates")
	}
	for call := 1; call < 20; call++ {
		got := FromEvidence("aes", eFix, eRnd).Estimates
		if len(got) != len(first) {
			t.Fatalf("call %d: %d estimates, first call %d", call, len(got), len(first))
		}
		for i, e := range got {
			f := first[i]
			if e.Location() != f.Location() || e.Kind != f.Kind {
				t.Fatalf("call %d: estimate %d is %v %s, first call %v %s", call, i, e.Kind, e.Location(), f.Kind, f.Location())
			}
			for _, v := range [][2]float64{
				{e.JSDBits, f.JSDBits},
				{e.EntropyDeltaBits, f.EntropyDeltaBits},
				{e.FixEntropyBits, f.FixEntropyBits},
				{e.RndEntropyBits, f.RndEntropyBits},
			} {
				if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
					t.Fatalf("call %d: %s scored %v, first call %v", call, e.Location(), v[0], v[1])
				}
			}
		}
	}
}

// predicatedRun is a one-invocation trace whose only memory instruction
// accesses addrs; with no addrs every lane was predicated off and the
// instruction leaves an empty histogram.
func predicatedRun(addrs ...int64) *trace.ProgramTrace {
	g := adcfg.NewGraph("k")
	f := adcfg.NewWarpFolder(g, nil)
	f.EnterBlock(0)
	f.MemAccess(0, isa.SpaceGlobal, false, addrs)
	f.Finish()
	return &trace.ProgramTrace{Program: "p", Invocations: []*trace.Invocation{{StackID: "s", Kernel: "k", Graph: g}}}
}

// TestEmptyHistogramScored checks the memory estimates around empty
// histograms: an instruction whose random runs all had their lanes
// predicated off is scored against an empty distribution, and one whose
// fixed runs did is not scored.
func TestEmptyHistogramScored(t *testing.T) {
	eFix, eRnd := evidence.NewDiff(3), evidence.NewDiff(3)
	for i := 0; i < 3; i++ {
		eFix.AddRun(predicatedRun(4, 4, 8))
		eRnd.AddRun(predicatedRun())
	}
	var mem []Estimate
	for _, e := range FromEvidence("p", eFix, eRnd).Estimates {
		if e.Kind == MemoryFeature {
			mem = append(mem, e)
		}
	}
	if len(mem) != 1 || mem[0].RndEntropyBits != 0 || mem[0].FixEntropyBits != entropy(dist{{4, 2.0 / 3}, {8, 1.0 / 3}}) {
		t.Errorf("memory estimates = %+v, want one against an empty random distribution", mem)
	}
	for _, e := range FromEvidence("p", eRnd, eFix).Estimates {
		if e.Kind == MemoryFeature {
			t.Errorf("an instruction with no fixed-regime accesses was scored: %+v", e)
		}
	}
}
