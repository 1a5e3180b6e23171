package adcfg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"owl/internal/isa"
)

// foldWarp folds a block sequence with optional per-block memory accesses.
func foldWarp(g *Graph, blocks []int, mems map[int][]int64) {
	f := NewWarpFolder(g, nil)
	for _, b := range blocks {
		f.EnterBlock(b)
		if addrs, ok := mems[b]; ok {
			f.MemAccess(0, isa.SpaceGlobal, false, addrs)
		}
	}
	f.Finish()
}

// edgeOf returns g's derived edge src→dst, or nil.
func edgeOf(g *Graph, src, dst int) *Edge {
	for _, e := range g.Edges() {
		if e.Src == src && e.Dst == dst {
			return &e
		}
	}
	return nil
}

func TestSingleWarpGraph(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0, 1, 2}, map[int][]int64{1: {100, 101}})
	if g.Warps != 1 {
		t.Errorf("warps = %d", g.Warps)
	}
	if len(g.Nodes) != 3 {
		t.Errorf("nodes = %d", len(g.Nodes))
	}
	// Edges: start->0, 0->1, 1->2, 2->end.
	if n := len(g.Edges()); n != 4 {
		t.Errorf("edges = %d", n)
	}
	if e := edgeOf(g, 0, 1); e == nil || e.Count != 1 {
		t.Errorf("edge 0->1 = %+v", e)
	}
	if e := edgeOf(g, Start, 0); e == nil || e.Count != 1 {
		t.Errorf("start edge = %+v", e)
	}
	if e := edgeOf(g, 2, End); e == nil || e.Count != 1 {
		t.Errorf("end edge = %+v", e)
	}
	h := g.Nodes[1].Visits[0].Mems[0]
	if countAt(h, 100) != 1 || countAt(h, 101) != 1 {
		t.Errorf("histogram = %v", h.Cells)
	}
}

func TestPairCountsFormTransitionTriples(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0, 1, 2}, nil)
	foldWarp(g, []int{0, 1, 3}, nil)
	n := g.Nodes[1]
	if n.Pairs[PairKey{Src: 0, Dst: 2}] != 1 {
		t.Errorf("pair (0,2) = %d", n.Pairs[PairKey{Src: 0, Dst: 2}])
	}
	if n.Pairs[PairKey{Src: 0, Dst: 3}] != 1 {
		t.Errorf("pair (0,3) = %d", n.Pairs[PairKey{Src: 0, Dst: 3}])
	}
	// Entry node's pair has the virtual start as src.
	if g.Nodes[0].Pairs[PairKey{Src: Start, Dst: 1}] != 2 {
		t.Errorf("entry pairs = %v", g.Nodes[0].Pairs)
	}
	// Exit nodes pair with the virtual end.
	if g.Nodes[2].Pairs[PairKey{Src: 1, Dst: End}] != 1 {
		t.Errorf("node 2 pairs = %v", g.Nodes[2].Pairs)
	}
}

func TestVisitIndexingPerWarp(t *testing.T) {
	// A loop visits block 1 three times in one warp: visits index per warp
	// occurrence, each with its own histogram (m_j in §V-B).
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	f.EnterBlock(0)
	for i := 0; i < 3; i++ {
		f.EnterBlock(1)
		f.MemAccess(0, isa.SpaceGlobal, false, []int64{int64(10 + i)})
	}
	f.Finish()
	n := g.Nodes[1]
	if len(n.Visits) != 3 {
		t.Fatalf("visits = %d", len(n.Visits))
	}
	for j := 0; j < 3; j++ {
		h := n.Visits[j].Mems[0]
		if countAt(h, uint64(10+j)) != 1 || len(h.Cells) != 1 {
			t.Errorf("visit %d histogram = %v", j, h.Cells)
		}
	}
	// A second warp's first visit merges into visit index 0.
	foldWarp(g, []int{0, 1}, map[int][]int64{1: {10}})
	if n.Visits[0].Count != 2 || countAt(n.Visits[0].Mems[0], 10) != 2 {
		t.Errorf("merged visit 0 = %+v", n.Visits[0])
	}
}

func TestPrevEdgeAttribution(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0, 1, 2}, nil)
	e := edgeOf(g, 1, 2)
	if want := []EdgeCount{{EdgeKey{Src: 0, Dst: 1}, 1}}; e == nil || !slices.Equal(e.Prev, want) {
		t.Errorf("edge 1->2 = %+v, want prev edges %v", e, want)
	}
}

func TestMergeAggregates(t *testing.T) {
	a := NewGraph("k")
	foldWarp(a, []int{0, 1}, map[int][]int64{1: {5}})
	b := NewGraph("k")
	foldWarp(b, []int{0, 1}, map[int][]int64{1: {5, 6}})
	a.Merge(b)
	if a.Warps != 2 {
		t.Errorf("warps = %d", a.Warps)
	}
	h := a.Nodes[1].Visits[0].Mems[0]
	if countAt(h, 5) != 2 || countAt(h, 6) != 1 {
		t.Errorf("merged histogram = %v", h.Cells)
	}
	if e := edgeOf(a, 0, 1); e == nil || e.Count != 2 {
		t.Errorf("edge 0->1 = %+v, want count 2", e)
	}
}

func TestMergeIsOrderIndependent(t *testing.T) {
	// Warp aggregation must commute so parallel block execution is
	// deterministic.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mkWarp := func() ([]int, map[int][]int64) {
			n := 2 + r.Intn(5)
			blocks := make([]int, n)
			for i := range blocks {
				blocks[i] = r.Intn(4)
			}
			mems := map[int][]int64{blocks[0]: {int64(r.Intn(10))}}
			return blocks, mems
		}
		w1b, w1m := mkWarp()
		w2b, w2m := mkWarp()
		g1 := NewGraph("k")
		foldWarp(g1, w1b, w1m)
		foldWarp(g1, w2b, w2m)
		g2 := NewGraph("k")
		foldWarp(g2, w2b, w2m)
		foldWarp(g2, w1b, w1m)
		return g1.Equal(g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	base := func() *Graph {
		g := NewGraph("k")
		foldWarp(g, []int{0, 1}, map[int][]int64{1: {5}})
		return g
	}
	a := base()
	if !a.Equal(base()) {
		t.Error("identical graphs hash differently")
	}
	b := base()
	foldWarp(b, []int{0, 1}, nil)
	if a.Equal(b) {
		t.Error("extra warp not reflected in hash")
	}
	c := NewGraph("k")
	foldWarp(c, []int{0, 1}, map[int][]int64{1: {6}})
	if a.Equal(c) {
		t.Error("different address not reflected in hash")
	}
	d := NewGraph("other")
	foldWarp(d, []int{0, 1}, map[int][]int64{1: {5}})
	if a.Equal(d) {
		t.Error("kernel name not reflected in hash")
	}
}

// TestEqualNilAndEmpty checks that Equal, like the encoding, makes no
// difference between a nil map or slice and an empty one, as a decoded
// graph may hold either, and that it still tells a missing histogram from
// a present one.
func TestEqualNilAndEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b *Graph
	}{
		{"nodes", &Graph{Kernel: "k"}, &Graph{Kernel: "k", Nodes: map[int]*Node{}}},
		{"pairs and visits",
			&Graph{Kernel: "k", Nodes: map[int]*Node{0: {}}},
			&Graph{Kernel: "k", Nodes: map[int]*Node{0: {Visits: []*Visit{}, Pairs: map[PairKey]int64{}}}}},
		{"mems and cells",
			&Graph{Kernel: "k", Nodes: map[int]*Node{0: {Visits: []*Visit{{Count: 1}, {Mems: []*MemHist{{}}}}}}},
			&Graph{Kernel: "k", Nodes: map[int]*Node{0: {Visits: []*Visit{{Count: 1, Mems: []*MemHist{}}, {Mems: []*MemHist{{Cells: []Cell{}}}}}}}}},
	} {
		if !tc.a.Equal(tc.b) || !tc.b.Equal(tc.a) || !slices.Equal(tc.a.Encode(), tc.b.Encode()) {
			t.Errorf("%s: nil and empty are not Equal, or do not encode alike", tc.name)
		}
	}
	a := &Graph{Kernel: "k", Nodes: map[int]*Node{0: {Visits: []*Visit{{Mems: []*MemHist{nil}}}}}}
	b := &Graph{Kernel: "k", Nodes: map[int]*Node{0: {Visits: []*Visit{{Mems: []*MemHist{{}}}}}}}
	if a.Equal(b) || b.Equal(a) {
		t.Error("a missing histogram is Equal to a present empty one")
	}
}

func TestRebaseFunction(t *testing.T) {
	g := NewGraph("k")
	rebase := func(space isa.Space, addrs []int64, keys []uint64) {
		for i, a := range addrs {
			if space == isa.SpaceGlobal {
				a -= 1000
			}
			keys[i] = uint64(a)
		}
	}
	f := NewWarpFolder(g, rebase)
	f.EnterBlock(0)
	f.MemAccess(0, isa.SpaceGlobal, false, []int64{1005})
	f.MemAccess(1, isa.SpaceShared, true, []int64{7})
	f.Finish()
	v := g.Nodes[0].Visits[0]
	if countAt(v.Mems[0], 5) != 1 {
		t.Errorf("global not rebased: %v", v.Mems[0].Cells)
	}
	if countAt(v.Mems[1], 7) != 1 || !v.Mems[1].Store {
		t.Errorf("shared histogram = %+v", v.Mems[1])
	}
}

func TestTotalAndSize(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0}, map[int][]int64{0: {1, 1, 2}})
	n := g.Nodes[0]
	if n.Visits[0].Mems[0].Total() != 3 {
		t.Errorf("total = %d", n.Visits[0].Mems[0].Total())
	}
	if n.TotalVisits() != 1 {
		t.Errorf("total visits = %d", n.TotalVisits())
	}
	if len(g.Encode()) <= 0 {
		t.Error("empty encoding")
	}
	small := len(g.Encode())
	foldWarp(g, []int{0, 1, 2, 3}, map[int][]int64{2: {9, 10, 11}})
	if len(g.Encode()) <= small {
		t.Error("encoding did not grow with content")
	}
}

func TestMemAccessBeforeEnterIgnored(t *testing.T) {
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	f.MemAccess(0, isa.SpaceGlobal, false, []int64{1}) // no current block
	f.Finish()                                         // nothing started
	if g.Warps != 0 || len(g.Nodes) != 0 {
		t.Errorf("stray events recorded: %v", g)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := NewGraph("k")
	for i := 0; i < 10; i++ {
		foldWarp(g, []int{0, i % 3, 2}, map[int][]int64{2: {int64(i % 4)}})
	}
	e1 := g.Encode()
	e2 := g.Encode()
	if string(e1) != string(e2) {
		t.Error("encoding not deterministic")
	}
}

// TestFoldersShareGraph checks the tracer's folding scheme: warps folded
// straight into one graph — interleaved, through folders reused after
// Finish — give the graph that per-warp graphs merged together give.
func TestFoldersShareGraph(t *testing.T) {
	warps := [][]int{{0, 1, 1, 2}, {0, 2}, {0, 1, 2, 1, 2}, {0, 1, 1, 1, 2}}
	addrs := func(w, b int) []int64 { return []int64{int64(10*w + b), int64(b), int64(100 + w)} }

	merged := NewGraph("k")
	for w, blocks := range warps {
		g := NewGraph("k")
		f := NewWarpFolder(g, nil)
		for _, b := range blocks {
			f.EnterBlock(b)
			f.MemAccess(b%2, isa.SpaceShared, false, addrs(w, b))
		}
		f.Finish()
		merged.Merge(g)
	}

	shared := NewGraph("k")
	folders := []*WarpFolder{NewWarpFolder(shared, nil), NewWarpFolder(shared, nil)}
	for pair := 0; pair < len(warps); pair += 2 {
		// Two warps at a time, their events interleaved as the rounds
		// driver interleaves the warps of a block.
		for step := 0; ; step++ {
			busy := false
			for i, f := range folders {
				w := pair + i
				if step < len(warps[w]) {
					b := warps[w][step]
					f.EnterBlock(b)
					f.MemAccess(b%2, isa.SpaceShared, false, addrs(w, b))
					busy = true
				}
			}
			if !busy {
				break
			}
		}
		for _, f := range folders {
			f.Finish()
		}
	}
	if shared.Hash() != merged.Hash() {
		t.Errorf("shared-graph folding differs from merged per-warp graphs:\n%v\n%v", shared, merged)
	}
}

// TestMergeSummaries checks that evidence histograms merge runs exactly
// like Merge, empty run histograms included, and that Summary gives each
// run histogram's mean and spread.
func TestMergeSummaries(t *testing.T) {
	run := NewGraph("k")
	foldWarp(run, []int{0, 1}, map[int][]int64{0: {10, 20, 20, 20}, 1: {7}})
	run.Nodes[1].Visits[0].Mems = append(run.Nodes[1].Visits[0].Mems, &MemHist{})
	g := NewGraph("k")
	foldWarp(g, []int{0, 2}, map[int][]int64{0: {20, 30}})

	type sum struct{ mean, spread float64 }
	ev := map[[3]int]*EvidenceHist{}
	got := map[[3]int]sum{}
	for _, o := range []*Graph{g, run} {
		for id, n := range o.Nodes {
			for j, v := range n.Visits {
				for mi, h := range v.Mems {
					k := [3]int{id, j, mi}
					if ev[k] == nil {
						ev[k] = &EvidenceHist{}
					}
					ev[k].Add(h.Cells)
					if o == run {
						mean, spread := Summary(h.Cells)
						got[k] = sum{mean, spread}
					}
				}
			}
		}
	}
	g.Merge(run)
	for id, n := range g.Nodes {
		for j, v := range n.Visits {
			for mi, h := range v.Mems {
				k := [3]int{id, j, mi}
				if c := ev[k].Cells(); !slices.Equal(c, h.Cells) {
					t.Errorf("histogram %v: evidence %v, Merge %v", k, c, h.Cells)
				}
				delete(ev, k)
			}
		}
	}
	if len(ev) != 0 {
		t.Errorf("evidence histograms without a merged counterpart: %v", ev)
	}
	want := map[[3]int]sum{{0, 0, 0}: {(10 + 60) / 4.0, 10}, {1, 0, 0}: {7, 0}, {1, 0, 1}: {0, 0}}
	if len(got) != len(want) {
		t.Fatalf("summaries = %v, want %v", got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("summary %v = %+v, want %+v", k, got[k], w)
		}
	}
}
