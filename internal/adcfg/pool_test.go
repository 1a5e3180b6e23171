package adcfg

import (
	"testing"

	"owl/internal/isa"
)

// TestRecycleYieldsCleanGraphs builds a populated graph, recycles it, and
// checks the pooled objects come back fully cleared.
func TestRecycleYieldsCleanGraphs(t *testing.T) {
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	f.EnterBlock(1)
	f.MemAccess(0, isa.SpaceGlobal, true, []int64{0x40})
	f.EnterBlock(2)
	f.Finish()
	if len(g.Nodes) == 0 {
		t.Fatal("folder built no nodes; test is vacuous")
	}
	Recycle(g)

	// The very next constructions drain the pools; everything must look
	// factory-fresh regardless of which pooled object comes back.
	for i := 0; i < 4; i++ {
		ng := NewGraph("fresh")
		if ng.Kernel != "fresh" || len(ng.Nodes) != 0 || ng.Warps != 0 {
			t.Fatalf("recycled graph not clean: %+v", ng)
		}
		Recycle(ng)
	}
}

// TestRecycleNil checks nil-safety of the release path.
func TestRecycleNil(t *testing.T) {
	Recycle(nil)
	recycleHist(nil)
}

// TestRecycleNormalizesNilMaps recycles a graph with nil maps (the shape
// gob/JSON decoding can produce) and checks pooled objects are usable.
func TestRecycleNormalizesNilMaps(t *testing.T) {
	g := &Graph{
		Kernel: "decoded",
		Nodes: map[int]*Node{
			1: {Block: 1, Visits: []*Visit{{Count: 2, Mems: []*MemHist{nil, {Space: isa.SpaceGlobal}}}}},
		},
	}
	Recycle(g)
	ng := NewGraph("after")
	ng.Nodes[1] = newNode(1)
	ng.Nodes[1].Pairs[PairKey{}]++ // must not panic on a nil map
	Recycle(ng)
}
