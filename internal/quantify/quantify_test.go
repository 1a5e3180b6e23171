package quantify

import (
	"math"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/core"
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
	uniform := dist{1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}
	if h := entropy(uniform); math.Abs(h-2) > 1e-12 {
		t.Errorf("H(uniform4) = %v, want 2", h)
	}
	point := dist{7: 1}
	if h := entropy(point); h != 0 {
		t.Errorf("H(point) = %v", h)
	}
}

func TestJSDProperties(t *testing.T) {
	p := dist{1: 0.5, 2: 0.5}
	if d := jsd(p, p); math.Abs(d) > 1e-12 {
		t.Errorf("JSD(p,p) = %v", d)
	}
	q := dist{3: 0.5, 4: 0.5}
	if d := jsd(p, q); math.Abs(d-1) > 1e-12 {
		t.Errorf("JSD(disjoint) = %v, want 1", d)
	}
	// Symmetry.
	r := dist{1: 0.9, 2: 0.1}
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
	if math.Abs(d[10]-0.75) > 1e-12 || math.Abs(d[20]-0.25) > 1e-12 {
		t.Errorf("dist = %v", d)
	}
	if len(distFromHist(nil)) != 0 {
		t.Error("empty histogram produced mass")
	}
}

func TestDistFromPairsEncodesNegatives(t *testing.T) {
	d := distFromPairs(map[adcfg.PairKey]int64{
		{Src: adcfg.Start, Dst: 1}: 1,
		{Src: 1, Dst: adcfg.End}:   1,
	})
	if len(d) != 2 {
		t.Errorf("virtual block ids collided: %v", d)
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
