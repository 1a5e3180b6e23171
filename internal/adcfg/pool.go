package adcfg

import (
	"slices"
	"sync"
)

// Buffer pools for the A-DCFG building blocks. Trace recording folds each
// kernel invocation into a pooled graph, and the streaming evidence
// pipeline releases each trace as soon as it merges — recycling the
// graphs (and their node/visit maps and histogram cells) through these
// pools keeps the evidence-phase heap at O(workers) instead of O(runs).
// A graph stores no edges (Graph.Edges derives them from the pairs), so
// no pool holds any.
// The pools are shared by internal/tracer (invocation graphs) and
// internal/trace (whole-trace release after an evidence merge).
var (
	graphPool = sync.Pool{New: func() any {
		return &Graph{Nodes: make(map[int]*Node)}
	}}
	nodePool = sync.Pool{New: func() any {
		return &Node{Pairs: make(map[PairKey]int64)}
	}}
	visitPool = sync.Pool{New: func() any { return &Visit{} }}
	// Histograms pool in two capacity classes. A pooled cell buffer keeps
	// its capacity, and the instructions of one trace see from one to
	// hundreds of distinct addresses, so a single pool would hand large
	// buffers to small histograms (memory held under them) and small
	// buffers to large ones (regrown every trace). New histograms start
	// small; one that outgrows smallHist cells swaps its buffer for a
	// large one.
	histPool = sync.Pool{New: func() any {
		return &MemHist{Cells: make([]Cell, 0, smallHist)}
	}}
	bigHistPool = sync.Pool{New: func() any {
		return &MemHist{Cells: make([]Cell, 0, 4*smallHist)}
	}}
)

// smallHist is the most cells a small-class buffer holds.
const smallHist = 32

// reserve makes room for n cells in *c. Cells that outgrow the small
// class move into a large-class buffer, returning their small buffer to
// the small pool; an empty buffer grows to at least the small class.
func reserve(c *[]Cell, n int) {
	if n <= cap(*c) {
		return
	}
	if n > smallHist && cap(*c) <= smallHist {
		b := bigHistPool.Get().(*MemHist)
		b.Cells = append(b.Cells[:0], *c...)
		*c, b.Cells = b.Cells, (*c)[:0]
		histPool.Put(b)
	}
	if n > cap(*c) {
		*c = slices.Grow(*c, max(n, smallHist)-len(*c))
	}
}

// Recycle returns g and every node, visit, and histogram it owns to
// the shared pools. The caller must hold the only live reference: g and
// its sub-objects must not be used afterwards. Recycle(nil) is a no-op.
func Recycle(g *Graph) {
	if g == nil {
		return
	}
	for _, n := range g.Nodes {
		for _, v := range n.Visits {
			for _, h := range v.Mems {
				recycleHist(h)
			}
			v.Mems = v.Mems[:0]
			v.Count = 0
			visitPool.Put(v)
		}
		n.Visits = n.Visits[:0]
		if n.Pairs == nil {
			n.Pairs = make(map[PairKey]int64)
		} else {
			clear(n.Pairs)
		}
		n.Block = 0
		nodePool.Put(n)
	}
	if g.Nodes == nil {
		g.Nodes = make(map[int]*Node)
	} else {
		clear(g.Nodes)
	}
	g.Kernel = ""
	g.Warps = 0
	graphPool.Put(g)
}

func recycleHist(h *MemHist) {
	if h == nil {
		return
	}
	h.Cells = h.Cells[:0]
	h.Space = 0
	h.Store = false
	if cap(h.Cells) > smallHist {
		bigHistPool.Put(h)
	} else {
		histPool.Put(h)
	}
}
