package adcfg

import (
	"testing"

	"owl/internal/isa"
)

// foldWalk folds two warps that walk blocks, each entry accessing two
// addresses from base, into g.
func foldWalk(g *Graph, base int64, blocks ...int) {
	f := NewWarpFolder(g, nil)
	defer f.Release()
	for range 2 {
		for i, b := range blocks {
			f.EnterBlock(b)
			f.MemAccess(0, isa.SpaceGlobal, i%2 == 0, []int64{base + int64(b), base + int64(8*i)})
		}
		f.Finish()
	}
}

// TestResetFoldsLikeFreshGraph resets a populated graph of another
// kernel and checks that folding and merging into it encode exactly what
// a fresh graph does: every node, visit and histogram the new walk takes
// from the spares must come back empty.
func TestResetFoldsLikeFreshGraph(t *testing.T) {
	g := NewGraph("other")
	foldWalk(g, 0x40, 1, 2, 3, 2, 3, 4)
	if len(g.Nodes) != 4 {
		t.Fatalf("folder built %d nodes, want 4; test is vacuous", len(g.Nodes))
	}
	for round := range 2 {
		g.Reset("k")
		foldWalk(g, 0x80, 3, 1, 3)
		want := NewGraph("k")
		foldWalk(want, 0x80, 3, 1, 3)
		if g.Hash() != want.Hash() {
			t.Fatalf("round %d: reset graph folds to %v, a fresh one to %v", round, g, want)
		}
		if len(g.spareNodes) != 2 {
			t.Fatalf("round %d: %d spare nodes after the fold, want 2", round, len(g.spareNodes))
		}
	}

	o := NewGraph("k")
	foldWalk(o, 0x100, 1, 4, 4)
	g.Reset("k")
	g.Merge(o)
	if g.Hash() != o.Hash() {
		t.Fatal("a reset graph merged a run into something else than the run")
	}
}

// resetFoldsFresh resets each graph, checks a node it hands out has a
// usable pair map, then resets it again and checks that folding into it
// encodes what a fresh graph does.
func resetFoldsFresh(t *testing.T, graphs map[string]*Graph) {
	t.Helper()
	want := NewGraph("k")
	foldWalk(want, 0, 1, 2)
	for name, g := range graphs {
		g.Reset("k")
		g.node(7).Pairs[PairKey{}]++ // must not panic on a nil map
		g.Reset("k")
		foldWalk(g, 0, 1, 2)
		if g.Hash() != want.Hash() {
			t.Errorf("%s: reset graph folds to %v, a fresh one to %v", name, g, want)
		}
	}
}

// TestRecycleNil reuses graphs with nothing in them, or with nil
// histograms in their visits, through Reset.
func TestRecycleNil(t *testing.T) {
	resetFoldsFresh(t, map[string]*Graph{
		"zero": {},
		"nil-hists": {Kernel: "decoded", Nodes: map[int]*Node{
			1: {Block: 1, Pairs: map[PairKey]int64{}, Visits: []*Visit{{Count: 1, Mems: []*MemHist{nil, nil}}}},
		}},
	})
}

// TestRecycleNormalizesNilMaps reuses graphs as gob/JSON decoding can
// leave them, with a nil node map or nodes with nil pair maps, through
// Reset.
func TestRecycleNormalizesNilMaps(t *testing.T) {
	resetFoldsFresh(t, map[string]*Graph{
		"no-maps": {Kernel: "decoded"},
		"nil-pairs": {Kernel: "decoded", Nodes: map[int]*Node{
			1: {Block: 1, Visits: []*Visit{{Count: 2, Mems: []*MemHist{nil, {Space: isa.SpaceGlobal, Cells: []Cell{{Addr: 3, Count: 1}}}}}}},
			2: {Block: 2},
		}},
	})
}
