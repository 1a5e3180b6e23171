// Package adcfg implements the Attributed Dynamic Control Flow Graph of
// §V-B: one graph per kernel invocation, with nodes for executed basic
// blocks (attributed with per-visit, per-instruction memory-access
// histograms, kept as cells in ascending address order) and edges for
// observed block transitions (attributed with traversal counts and
// previous-edge counts). Each warp's trace folds straight into its
// invocation's graph as it executes (see WarpFolder), eliminating
// cross-thread redundancy — the property that gives Owl its scalability
// (RQ2).
package adcfg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"owl/internal/isa"
)

// Virtual block IDs for the start and end of a warp's trace. A graph may
// have multiple entry and exit nodes (§V-B), so these synthetic endpoints
// carry the per-warp boundary transitions.
const (
	Start = -1
	End   = -2
)

// PairKey is a (src, dst) control-flow pair through a node: the node was
// entered from Src and left towards Dst. Counting pairs constructs a
// feasible control-flow transition matrix (Eq. 7).
type PairKey struct {
	Src, Dst int
}

// EdgeKey identifies a directed transition between two blocks.
type EdgeKey struct {
	Src, Dst int
}

// Cell is one address of a histogram with its access count.
type Cell struct {
	Addr  uint64
	Count int64
}

// MemHist is the access histogram of one memory instruction during one
// visit: rebased address → access count, aggregated over warps and lanes.
// Cells hold the addresses in strictly ascending order, each with a
// positive count, so every consumer — merge, the canonical encoding, the
// distribution tests — walks them in address order without hashing or
// sorting.
type MemHist struct {
	Space isa.Space
	Store bool
	Cells []Cell
}

func newMemHist(space isa.Space, store bool) *MemHist {
	h := histPool.Get().(*MemHist)
	h.Space, h.Store = space, store
	return h
}

// Total returns the total access count in the histogram.
func (h *MemHist) Total() int64 {
	var n int64
	for _, c := range h.Cells {
		n += c.Count
	}
	return n
}

// add folds the strictly ascending cells o into h and returns, from the
// same walk, o's count-weighted mean address and its max-min address
// range (both 0 for an empty o). Addresses already in h gain their counts
// in place, found by searching forward from a cursor; new addresses are
// counted, and one backward pass then merges them into the grown cells.
func (h *MemHist) add(o []Cell) (mean, spread float64) {
	if len(o) == 0 {
		return 0, 0
	}
	var sum float64
	var total int64
	missing, i := 0, 0
	for _, c := range o {
		i = seek(h.Cells, i, c.Addr)
		if i < len(h.Cells) && h.Cells[i].Addr == c.Addr {
			h.Cells[i].Count += c.Count
			i++
		} else {
			missing++
		}
		sum += float64(c.Addr) * float64(c.Count)
		total += c.Count
	}
	if missing > 0 {
		n := len(h.Cells)
		h.reserve(n + missing)
		cells := h.Cells[:n+missing]
		i, w := n-1, n+missing-1
		for j := len(o) - 1; w > i; j-- {
			c := o[j]
			for i >= 0 && cells[i].Addr > c.Addr {
				cells[w] = cells[i]
				w, i = w-1, i-1
			}
			if i >= 0 && cells[i].Addr == c.Addr {
				c = cells[i] // its count was added above
				i--
			}
			cells[w] = c
			w--
		}
		h.Cells = cells
	}
	return sum / float64(total), float64(o[len(o)-1].Addr) - float64(o[0].Addr)
}

// seek returns the index of the first cell at or after from whose address
// is at least a. It gallops forward from from, so runs of matching
// addresses cost one step each, then binary-searches the bracket.
func seek(c []Cell, from int, a uint64) int {
	lo, hi := from, from
	for step := 1; hi < len(c) && c[hi].Addr < a; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	hi = min(hi, len(c))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c[m].Addr < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Visit aggregates the j-th visit of a basic block across all warps: how
// many warps made a j-th visit and what each memory instruction accessed
// during it (m_j in §V-B).
type Visit struct {
	Count int64
	Mems  []*MemHist
}

// Node is one executed basic block with its attributes.
type Node struct {
	Block  int
	Visits []*Visit
	// Pairs counts (entered-from, left-towards) combinations, the raw
	// material of the control-flow transition matrix (§VII-C).
	Pairs map[PairKey]int64
}

func newNode(block int) *Node {
	n := nodePool.Get().(*Node)
	n.Block = block
	return n
}

func newVisit() *Visit { return visitPool.Get().(*Visit) }

// TotalVisits returns the number of times any warp entered the block.
func (n *Node) TotalVisits() int64 {
	var t int64
	for _, v := range n.Visits {
		t += v.Count
	}
	return t
}

// Edge is one observed transition with its traversal count and the counts
// of the edges that preceded it (§V-B).
type Edge struct {
	Count int64
	Prev  map[EdgeKey]int64
}

func newEdge() *Edge { return edgePool.Get().(*Edge) }

// Graph is the A-DCFG of one kernel invocation (or of merged evidence).
type Graph struct {
	Kernel string
	Nodes  map[int]*Node
	Edges  map[EdgeKey]*Edge
	Warps  int64 // number of warp traces folded in
}

// NewGraph returns an empty graph for the named kernel, reusing a
// recycled graph when one is pooled (see Recycle).
func NewGraph(kernel string) *Graph {
	g := graphPool.Get().(*Graph)
	g.Kernel = kernel
	return g
}

func (g *Graph) node(block int) *Node {
	n := g.Nodes[block]
	if n == nil {
		n = newNode(block)
		g.Nodes[block] = n
	}
	return n
}

func (g *Graph) edge(k EdgeKey) *Edge {
	e := g.Edges[k]
	if e == nil {
		e = newEdge()
		g.Edges[k] = e
	}
	return e
}

// WarpFolder folds one warp's trace into a graph. It implements the
// simt.Hooks shape (via the tracer) and must be Finish()ed when the warp
// retires so boundary transitions are recorded. Folding only adds to the
// graph's counts, so several folders may target one graph as long as
// their calls do not run concurrently, and a finished folder can fold
// the next warp into the same graph.
type WarpFolder struct {
	g        *Graph
	rebase   func(space isa.Space, addr int64) uint64
	visits   []int // visits[b]: the warp's entries into block b so far
	cur      *Visit
	prevPrev int
	prev     int
	prevEdge EdgeKey
	started  bool
	keys     [32]uint64 // one warp access's rebased addresses, sorted
	lanes    [32]Cell   // the same, counted into cells
}

// NewWarpFolder creates a folder targeting g. rebase converts raw device
// addresses to stable offsets (allocation-relative for global memory); a
// nil rebase keeps raw addresses.
func NewWarpFolder(g *Graph, rebase func(space isa.Space, addr int64) uint64) *WarpFolder {
	if rebase == nil {
		rebase = func(_ isa.Space, addr int64) uint64 { return uint64(addr) }
	}
	return &WarpFolder{
		g:        g,
		rebase:   rebase,
		prevPrev: Start,
		prev:     Start,
	}
}

// EnterBlock records that the warp entered block b.
func (f *WarpFolder) EnterBlock(b int) {
	g := f.g
	if !f.started {
		f.started = true
		g.Warps++
	}
	ek := EdgeKey{Src: f.prev, Dst: b}
	e := g.edge(ek)
	e.Count++
	if f.prev != Start {
		e.Prev[f.prevEdge]++
		// Completing the triple (prevPrev, prev, b) attributes the pair to
		// the middle node.
		g.node(f.prev).Pairs[PairKey{Src: f.prevPrev, Dst: b}]++
	}
	if b >= len(f.visits) {
		f.visits = append(f.visits, make([]int, max(b+1, 2*len(f.visits), 16)-len(f.visits))...)
	}
	j := f.visits[b]
	f.visits[b] = j + 1
	n := g.node(b)
	for len(n.Visits) <= j {
		n.Visits = append(n.Visits, newVisit())
	}
	f.cur = n.Visits[j]
	f.cur.Count++

	f.prevPrev = f.prev
	f.prev = b
	f.prevEdge = ek
}

// MemAccess records one memory instruction's lane addresses in the current
// block visit. memIdx is the instruction's index among the block's memory
// instructions.
func (f *WarpFolder) MemAccess(memIdx int, space isa.Space, store bool, addrs []int64) {
	if f.cur == nil {
		return
	}
	for len(f.cur.Mems) <= memIdx {
		f.cur.Mems = append(f.cur.Mems, nil)
	}
	h := f.cur.Mems[memIdx]
	if h == nil {
		h = newMemHist(space, store)
		f.cur.Mems[memIdx] = h
	}
	for len(addrs) > 0 {
		n := min(len(addrs), len(f.keys))
		f.fold(h, space, addrs[:n])
		addrs = addrs[n:]
	}
}

// fold adds at most one warp's lane addresses to h: it sorts them
// (insertion sort: lanes are few and often already ascending), counts
// repeats into cells, and merges the cells in one walk. A histogram's
// first access, often its only one, takes the cells as they are.
func (f *WarpFolder) fold(h *MemHist, space isa.Space, addrs []int64) {
	keys := f.keys[:len(addrs)]
	for i, a := range addrs {
		k := f.rebase(space, a)
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	first := len(h.Cells) == 0
	lanes := f.lanes[:0]
	if first {
		h.reserve(len(keys))
		lanes = h.Cells
	}
	for _, k := range keys {
		if n := len(lanes); n > 0 && lanes[n-1].Addr == k {
			lanes[n-1].Count++
		} else {
			lanes = append(lanes, Cell{Addr: k, Count: 1})
		}
	}
	if first {
		h.Cells = lanes
	} else {
		h.add(lanes)
	}
}

// Finish closes the warp's trace with its End transition and resets the
// folder for the next warp.
func (f *WarpFolder) Finish() {
	if f.started {
		ek := EdgeKey{Src: f.prev, Dst: End}
		e := f.g.edge(ek)
		e.Count++
		if f.prev != Start {
			e.Prev[f.prevEdge]++
			f.g.node(f.prev).Pairs[PairKey{Src: f.prevPrev, Dst: End}]++
		}
	}
	clear(f.visits)
	f.cur = nil
	f.prevPrev, f.prev = Start, Start
	f.prevEdge = EdgeKey{}
	f.started = false
}

// Merge folds o into g: node visits align by visit index, histograms and
// counts add (the same aggregation used for warps in the recording phase,
// reused for evidence merging in §VII-A).
func (g *Graph) Merge(o *Graph) { g.merge(o, nil) }

// MergeSummaries is Merge that also calls each once for every non-empty
// histogram of o, with its position — the mem-th memory instruction
// during the visit-th visit of block — and its count-weighted mean
// address and max-min address range, computed in the same walk that
// folds the histogram in.
func (g *Graph) MergeSummaries(o *Graph, each func(block, visit, mem int, mean, spread float64)) {
	g.merge(o, each)
}

func (g *Graph) merge(o *Graph, each func(block, visit, mem int, mean, spread float64)) {
	g.Warps += o.Warps
	for id, on := range o.Nodes {
		n := g.node(id)
		for j, ov := range on.Visits {
			for len(n.Visits) <= j {
				n.Visits = append(n.Visits, newVisit())
			}
			v := n.Visits[j]
			v.Count += ov.Count
			for mi, oh := range ov.Mems {
				if oh == nil {
					continue
				}
				for len(v.Mems) <= mi {
					v.Mems = append(v.Mems, nil)
				}
				if v.Mems[mi] == nil {
					v.Mems[mi] = newMemHist(oh.Space, oh.Store)
				}
				mean, spread := v.Mems[mi].add(oh.Cells)
				if each != nil && len(oh.Cells) > 0 {
					each(id, j, mi, mean, spread)
				}
			}
		}
		for pk, c := range on.Pairs {
			n.Pairs[pk] += c
		}
	}
	for ek, oe := range o.Edges {
		e := g.edge(ek)
		e.Count += oe.Count
		for pk, c := range oe.Prev {
			e.Prev[pk] += c
		}
	}
}

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Kernel)
	c.Merge(g)
	c.Warps = g.Warps
	return c
}

// Encode writes a canonical binary form of the graph: deterministic field
// order with sorted keys. It backs both Hash (trace-equality classing,
// §VI) and trace-size accounting (Fig. 5, Table IV).
func (g *Graph) Encode() []byte {
	var buf []byte
	put := func(v int64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putU := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	buf = append(buf, g.Kernel...)
	buf = append(buf, 0)
	put(g.Warps)

	nodeIDs := make([]int, 0, len(g.Nodes))
	for id := range g.Nodes {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Ints(nodeIDs)
	put(int64(len(nodeIDs)))
	for _, id := range nodeIDs {
		n := g.Nodes[id]
		put(int64(id))
		put(int64(len(n.Visits)))
		for _, v := range n.Visits {
			put(v.Count)
			put(int64(len(v.Mems)))
			for _, h := range v.Mems {
				if h == nil {
					put(-1)
					continue
				}
				put(int64(h.Space))
				if h.Store {
					put(1)
				} else {
					put(0)
				}
				put(int64(len(h.Cells)))
				for _, c := range h.Cells {
					putU(c.Addr)
					put(c.Count)
				}
			}
		}
		pairs := make([]PairKey, 0, len(n.Pairs))
		for pk := range n.Pairs {
			pairs = append(pairs, pk)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].Src != pairs[j].Src {
				return pairs[i].Src < pairs[j].Src
			}
			return pairs[i].Dst < pairs[j].Dst
		})
		put(int64(len(pairs)))
		for _, pk := range pairs {
			put(int64(pk.Src))
			put(int64(pk.Dst))
			put(n.Pairs[pk])
		}
	}

	edgeKeys := make([]EdgeKey, 0, len(g.Edges))
	for ek := range g.Edges {
		edgeKeys = append(edgeKeys, ek)
	}
	sort.Slice(edgeKeys, func(i, j int) bool {
		if edgeKeys[i].Src != edgeKeys[j].Src {
			return edgeKeys[i].Src < edgeKeys[j].Src
		}
		return edgeKeys[i].Dst < edgeKeys[j].Dst
	})
	put(int64(len(edgeKeys)))
	for _, ek := range edgeKeys {
		e := g.Edges[ek]
		put(int64(ek.Src))
		put(int64(ek.Dst))
		put(e.Count)
		prevs := make([]EdgeKey, 0, len(e.Prev))
		for pk := range e.Prev {
			prevs = append(prevs, pk)
		}
		sort.Slice(prevs, func(i, j int) bool {
			if prevs[i].Src != prevs[j].Src {
				return prevs[i].Src < prevs[j].Src
			}
			return prevs[i].Dst < prevs[j].Dst
		})
		put(int64(len(prevs)))
		for _, pk := range prevs {
			put(int64(pk.Src))
			put(int64(pk.Dst))
			put(e.Prev[pk])
		}
	}
	return buf
}

// Hash returns the canonical SHA-256 of the graph.
func (g *Graph) Hash() [32]byte { return sha256.Sum256(g.Encode()) }

// SizeBytes returns the canonical encoded size, the trace-size metric of
// Fig. 5 and Table IV.
func (g *Graph) SizeBytes() int { return len(g.Encode()) }

// Equal reports canonical equality of two graphs.
func (g *Graph) Equal(o *Graph) bool { return g.Hash() == o.Hash() }

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("adcfg(%s: %d nodes, %d edges, %d warps)",
		g.Kernel, len(g.Nodes), len(g.Edges), g.Warps)
}
