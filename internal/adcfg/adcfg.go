// Package adcfg implements the Attributed Dynamic Control Flow Graph of
// §V-B: one graph per kernel invocation, with nodes for executed basic
// blocks (attributed with per-visit, per-instruction memory-access
// histograms, kept as cells in ascending address order) and edges for
// observed block transitions (attributed with traversal counts and
// previous-edge counts). A node stores the counts of the (entered-from,
// left-towards) pairs through it; the edges are not stored, Graph.Edges
// derives them from those pairs. Each warp's trace folds straight into
// its invocation's graph as it executes (see WarpFolder: histograms grow
// per access, and the warp's pair counts land when it finishes),
// eliminating cross-thread redundancy — the property that gives Owl its
// scalability (RQ2). Graphs are reused whole: Graph.Reset keeps a graph's
// nodes, visits and histograms, emptied, as spares that its next folds
// take before they allocate, and the graph keeps the warp folders that
// fold into it (Graph.Folder), each reset for the next launch.
package adcfg

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

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
// sorting. Cells are the whole histogram, so every reader takes them as
// they are; the dense counts of the evidence merge live in EvidenceHist.
type MemHist struct {
	Space isa.Space
	Store bool
	Cells []Cell
}

// Total returns the total access count in the histogram.
func (h *MemHist) Total() int64 {
	var n int64
	for _, c := range h.Cells {
		n += c.Count
	}
	return n
}

// add folds the strictly ascending cells o into h: addresses already in
// h gain their counts in place, and one backward pass merges the others
// into the grown cells.
func (h *MemHist) add(o []Cell) {
	if missing := addCounts(h.Cells, o); missing > 0 {
		insert(&h.Cells, o, missing)
	}
}

// addCounts adds the count of each cell of o whose address cells already
// hold to that cell, in place, finding it by searching forward from a
// cursor, and returns how many of o's addresses cells lack. Both must be
// strictly ascending.
func addCounts(cells, o []Cell) (missing int) {
	i := 0
	for _, c := range o {
		i = seek(cells, i, c.Addr)
		if i < len(cells) && cells[i].Addr == c.Addr {
			cells[i].Count += c.Count
			i++
		} else {
			missing++
		}
	}
	return missing
}

// insert merges the missing cells of o that *dst lacks into *dst, in one
// backward pass from the end of the grown buffer. addCounts must have
// added the counts of o's other cells.
func insert(dst *[]Cell, o []Cell, missing int) {
	n := len(*dst)
	cells := slices.Grow(*dst, missing)[:n+missing]
	i, w := n-1, n+missing-1
	for j := len(o) - 1; w > i; j-- {
		c := o[j]
		for i >= 0 && cells[i].Addr > c.Addr {
			cells[w] = cells[i]
			w, i = w-1, i-1
		}
		if i >= 0 && cells[i].Addr == c.Addr {
			c = cells[i] // its count was added by addCounts
			i--
		}
		cells[w] = c
		w--
	}
	*dst = cells
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

// TotalVisits returns the number of times any warp entered the block.
func (n *Node) TotalVisits() int64 {
	var t int64
	for _, v := range n.Visits {
		t += v.Count
	}
	return t
}

// Edge is one observed transition with its traversal count and the counts
// of the edges that preceded it (§V-B). Edges are not stored: Graph.Edges
// derives them from the nodes' pair counts.
type Edge struct {
	EdgeKey
	Count int64
	Prev  []EdgeCount // the edges p→Src taken before this one, ascending by p
}

// EdgeCount is an edge with a count.
type EdgeCount struct {
	EdgeKey
	Count int64
}

// Graph is the A-DCFG of one kernel invocation, or of several merged.
type Graph struct {
	Kernel string
	Nodes  map[int]*Node
	Warps  int64 // number of warp traces folded in
	// The nodes, visits and histograms the last Reset emptied, taken
	// before new ones are allocated.
	spareNodes  []*Node
	spareVisits []*Visit
	spareHists  []*MemHist
	// folders[w] folds warp w's launches into the graph; see Folder.
	folders []*WarpFolder
}

// NewGraph returns an empty graph for the named kernel.
func NewGraph(kernel string) *Graph {
	return &Graph{Kernel: kernel, Nodes: make(map[int]*Node)}
}

// Reset empties g for an invocation of the named kernel. Its nodes,
// visits and histograms, each emptied with its buffers kept, become
// spares that the graph's next folds and merges take before they
// allocate. The caller must hold the only reference to g and everything
// it owns. Reset also readies a zero Graph, or a decoded one with nil
// maps, for folding.
func (g *Graph) Reset(kernel string) {
	for _, n := range g.Nodes {
		for _, v := range n.Visits {
			for _, h := range v.Mems {
				if h != nil {
					h.Cells = h.Cells[:0]
					g.spareHists = append(g.spareHists, h)
				}
			}
			clear(v.Mems)
			v.Mems, v.Count = v.Mems[:0], 0
			g.spareVisits = append(g.spareVisits, v)
		}
		clear(n.Visits)
		n.Visits = n.Visits[:0]
		if n.Pairs == nil {
			n.Pairs = make(map[PairKey]int64)
		}
		clear(n.Pairs)
		g.spareNodes = append(g.spareNodes, n)
	}
	if g.Nodes == nil {
		g.Nodes = make(map[int]*Node)
	}
	clear(g.Nodes)
	g.Kernel, g.Warps = kernel, 0
}

// Folder returns the folder of warp w, ready to fold into g through
// rebase: a new one the first time, then the same one reset. A graph
// keeps its folders through Reset, as it keeps its emptied nodes, so a
// launch recorded into a reused graph folds through reused folders.
func (g *Graph) Folder(w int, rebase Rebaser) *WarpFolder {
	if w >= len(g.folders) {
		g.folders = append(g.folders, make([]*WarpFolder, w+1-len(g.folders))...)
	}
	f := g.folders[w]
	if f == nil {
		f = NewWarpFolder(g, rebase)
		g.folders[w] = f
	} else {
		f.reset(g, rebase)
	}
	return f
}

// pop takes the last spare of *s, or returns nil when there is none.
func pop[T any](s *[]*T) *T {
	n := len(*s)
	if n == 0 {
		return nil
	}
	x := (*s)[n-1]
	(*s)[n-1] = nil
	*s = (*s)[:n-1]
	return x
}

func (g *Graph) node(block int) *Node {
	n := g.Nodes[block]
	if n == nil {
		if n = pop(&g.spareNodes); n == nil {
			n = &Node{Pairs: make(map[PairKey]int64)}
		}
		n.Block = block
		g.Nodes[block] = n
	}
	return n
}

func (g *Graph) visit() *Visit {
	if v := pop(&g.spareVisits); v != nil {
		return v
	}
	return &Visit{}
}

func (g *Graph) hist(space isa.Space, store bool) *MemHist {
	h := pop(&g.spareHists)
	if h == nil {
		h = &MemHist{}
	}
	h.Space, h.Store = space, store
	return h
}

// nodeIDs returns the graph's block IDs in ascending order.
func (g *Graph) nodeIDs() []int {
	ids := make([]int, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// sortedPairs returns m's pairs ordered by (Src, Dst).
func sortedPairs(m map[PairKey]int64) []PairKey {
	pairs := make([]PairKey, 0, len(m))
	for pk := range m {
		pairs = append(pairs, pk)
	}
	slices.SortFunc(pairs, func(a, b PairKey) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return pairs
}

// Edges derives the graph's edges from its nodes' pair counts, sorted by
// (Src, Dst). The edge b→n counts the pairs (p, n) through b, and its
// previous edge p→b carries the count of (p, n). The entry edge Start→b
// counts the pairs (Start, n) through b. Start sorts before every block
// as a source; End sorts before every block as a destination.
func (g *Graph) Edges() []Edge {
	var entries, edges []Edge
	for _, id := range g.nodeIDs() {
		n := g.Nodes[id]
		first := len(edges)
		var entry int64
		for _, pk := range sortedPairs(n.Pairs) {
			c := n.Pairs[pk]
			if pk.Src == Start {
				entry += c
			}
			i := first
			for i < len(edges) && edges[i].Dst != pk.Dst {
				i++
			}
			if i == len(edges) {
				edges = append(edges, Edge{EdgeKey: EdgeKey{Src: id, Dst: pk.Dst}})
			}
			e := &edges[i]
			e.Count += c
			e.Prev = append(e.Prev, EdgeCount{EdgeKey{Src: pk.Src, Dst: id}, c})
		}
		slices.SortFunc(edges[first:], func(a, b Edge) int { return cmp.Compare(a.Dst, b.Dst) })
		if entry > 0 {
			entries = append(entries, Edge{EdgeKey: EdgeKey{Src: Start, Dst: id}, Count: entry})
		}
	}
	return append(entries, edges...)
}

// Rebaser converts one access's raw lane addresses into the stable keys
// its histogram records: keys[i] is the key of addrs[i] (allocation-
// relative for global memory, see the tracer). It resolves a whole lane
// vector per call, so an implementation can reuse one lookup across the
// lanes that hit the same allocation.
type Rebaser func(space isa.Space, addrs []int64, keys []uint64)

// laneSpan is the widest key range, in words, whose lanes fold into cells
// by counting instead of by sorting. It covers coalesced accesses and
// table gathers within a few KB; scatters across allocations sort.
const laneSpan = 512

// WarpFolder folds one warp's trace into a graph. It implements the
// simt.Hooks shape (via the tracer) and must be Finish()ed when the warp
// retires: its block transitions stay pending in the folder until then.
// Folding only adds to the graph's counts, so several folders may target
// one graph as long as their calls do not run concurrently, and a
// finished folder can fold the next warp into the same graph. A graph
// keeps the folders of its warps (see Graph.Folder) and resets them for
// each launch, with their buffers kept.
//
// Every event folds in one pass without a map operation in the common
// case. The folder keeps one state per edge it has taken: the edge's
// destination node and the successors seen from it, each with a pending
// count of the (previous, current, next) block triple. A block entry
// scans the current state's successors and bumps a count; Finish adds
// each distinct triple's count once to the middle node's Pairs. A memory
// access rebases its lanes with one call, counts lanes spanning fewer
// than laneSpan words into a bitmap and emits them as ascending cells,
// and sorts only wider lane vectors.
type WarpFolder struct {
	g       *Graph
	rebase  Rebaser
	visits  []int // visits[b]: the warp's entries into block b so far
	cur     *Visit
	at      int32 // the warp's current state; 0 before its first block
	started bool
	// states[0] is the root, the warp before its first block; the others
	// are found through index by the edge they stand for.
	states  []foldState
	index   map[EdgeKey]int32
	pending []succRef             // successors with a pending count, to add at Finish
	keys    [32]uint64            // one warp access's rebased addresses
	lanes   [32]Cell              // the same, counted into cells
	bitmap  [laneSpan / 64]uint64 // the offsets from the lowest key present
	counts  [laneSpan]uint8       // lanes at each offset
}

// foldState is the folder's state after taking the edge from→block.
type foldState struct {
	from, block int
	node        *Node // block's node; nil for the root
	succ        []foldSucc
}

// foldSucc is a block seen after a state, with the state of the edge
// leading to it.
type foldSucc struct {
	block   int   // the next block, or End
	to      int32 // the state of the edge block→next; unused for End
	pending int64 // transitions through this triple not yet in the graph
}

// succRef locates one successor of one state.
type succRef struct{ state, succ int32 }

// NewWarpFolder returns a folder targeting g. rebase converts raw device
// addresses to stable keys; a nil rebase keeps raw addresses.
func NewWarpFolder(g *Graph, rebase Rebaser) *WarpFolder {
	f := &WarpFolder{index: make(map[EdgeKey]int32)}
	f.reset(g, rebase)
	return f
}

// reset readies f to fold warps into g with rebase, as NewWarpFolder
// would, keeping its state, successor and visit buffers. Transitions of
// an unfinished warp are dropped.
func (f *WarpFolder) reset(g *Graph, rebase Rebaser) {
	for i := range f.states {
		s := &f.states[i]
		clear(s.succ)
		s.succ = s.succ[:0]
		s.node = nil
	}
	f.states = f.states[:0]
	clear(f.index)
	f.pending = f.pending[:0]
	clear(f.visits)
	f.g, f.rebase, f.cur = g, rebase, nil
	f.at, f.started = 0, false
	f.newState(Start, Start, nil)
}

// newState appends the state of edge from→block, keeping the successor
// buffer a reset folder left in the slot.
func (f *WarpFolder) newState(from, block int, n *Node) int32 {
	i := len(f.states)
	if i < cap(f.states) {
		f.states = f.states[:i+1]
	} else {
		f.states = append(f.states, foldState{})
	}
	s := &f.states[i]
	s.from, s.block, s.node = from, block, n
	return int32(i)
}

// step moves the warp from its current state to block b (or End) and
// counts the triple it completes as pending. The root state's step
// completes none.
func (f *WarpFolder) step(b int) {
	s := &f.states[f.at]
	i := 0
	for i < len(s.succ) && s.succ[i].block != b {
		i++
	}
	if i == len(s.succ) {
		f.addSucc(b)
		s = &f.states[f.at]
	}
	t := &s.succ[i]
	if f.at != 0 {
		if t.pending == 0 {
			f.pending = append(f.pending, succRef{state: f.at, succ: int32(i)})
		}
		t.pending++
	}
	f.at = t.to
}

// addSucc records b as a new successor of the current state, finding or
// creating the state of the edge it takes.
func (f *WarpFolder) addSucc(b int) {
	k := EdgeKey{Src: f.states[f.at].block, Dst: b}
	to := int32(-1)
	if b != End {
		var ok bool
		if to, ok = f.index[k]; !ok {
			to = f.newState(k.Src, b, f.g.node(b))
			f.index[k] = to
		}
	}
	s := &f.states[f.at]
	s.succ = append(s.succ, foldSucc{block: b, to: to})
}

// EnterBlock records that the warp entered block b.
func (f *WarpFolder) EnterBlock(b int) {
	if !f.started {
		f.started = true
		f.g.Warps++
	}
	f.step(b)
	if b >= len(f.visits) {
		f.visits = append(f.visits, make([]int, max(b+1, 2*len(f.visits), 16)-len(f.visits))...)
	}
	j := f.visits[b]
	f.visits[b] = j + 1
	n := f.states[f.at].node
	for len(n.Visits) <= j {
		n.Visits = append(n.Visits, f.g.visit())
	}
	f.cur = n.Visits[j]
	f.cur.Count++
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
		h = f.g.hist(space, store)
		f.cur.Mems[memIdx] = h
	}
	for len(addrs) > 0 {
		n := min(len(addrs), len(f.keys))
		f.fold(h, space, addrs[:n])
		addrs = addrs[n:]
	}
}

// fold adds at most one warp's lane addresses to h. It rebases them,
// builds their ascending cells — by counting into the bitmap when they
// span fewer than laneSpan words, by sorting otherwise — and merges the
// cells in one walk. A histogram's first access, often its only one,
// takes the cells as they are.
func (f *WarpFolder) fold(h *MemHist, space isa.Space, addrs []int64) {
	keys := f.keys[:len(addrs)]
	if f.rebase != nil {
		f.rebase(space, addrs, keys)
	} else {
		for i, a := range addrs {
			keys[i] = uint64(a)
		}
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	first := len(h.Cells) == 0
	lanes := f.lanes[:0]
	if first {
		lanes = slices.Grow(h.Cells, len(keys))
	}
	if hi-lo < laneSpan {
		for _, k := range keys {
			o := k - lo
			f.bitmap[o>>6] |= 1 << (o & 63)
			f.counts[o]++
		}
		for w := range f.bitmap[:(hi-lo)>>6+1] {
			for m := f.bitmap[w]; m != 0; m &= m - 1 {
				o := w<<6 | bits.TrailingZeros64(m)
				lanes = append(lanes, Cell{Addr: lo + uint64(o), Count: int64(f.counts[o])})
				f.counts[o] = 0
			}
			f.bitmap[w] = 0
		}
	} else {
		slices.Sort(keys)
		for _, k := range keys {
			if n := len(lanes); n > 0 && lanes[n-1].Addr == k {
				lanes[n-1].Count++
			} else {
				lanes = append(lanes, Cell{Addr: k, Count: 1})
			}
		}
	}
	if first {
		h.Cells = lanes
	} else {
		h.add(lanes)
	}
}

// Finish closes the warp's trace with its End transition, adds the
// warp's pending triple counts to the graph, and resets the folder for
// the next warp.
func (f *WarpFolder) Finish() {
	if f.started {
		f.step(End)
	}
	for _, r := range f.pending {
		// The triple (from, block, next) is the pair (from, next) of the
		// middle node.
		s := &f.states[r.state]
		t := &s.succ[r.succ]
		s.node.Pairs[PairKey{Src: s.from, Dst: t.block}] += t.pending
		t.pending = 0
	}
	f.pending = f.pending[:0]
	clear(f.visits)
	f.cur = nil
	f.at = 0
	f.started = false
}

// Merge folds o into g: node visits align by visit index, histograms and
// counts add (the same aggregation used for warps in the recording phase).
// Recording folds warps straight into one graph, so Merge serves as the
// reference that folding and the evidence merge are checked against.
func (g *Graph) Merge(o *Graph) {
	g.Warps += o.Warps
	for id, on := range o.Nodes {
		n := g.node(id)
		for j, ov := range on.Visits {
			for len(n.Visits) <= j {
				n.Visits = append(n.Visits, g.visit())
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
					v.Mems[mi] = g.hist(oh.Space, oh.Store)
				}
				v.Mems[mi].add(oh.Cells)
			}
		}
		for pk, c := range on.Pairs {
			n.Pairs[pk] += c
		}
	}
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

	nodeIDs := g.nodeIDs()
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
		pairs := sortedPairs(n.Pairs)
		put(int64(len(pairs)))
		for _, pk := range pairs {
			put(int64(pk.Src))
			put(int64(pk.Dst))
			put(n.Pairs[pk])
		}
	}

	edges := g.Edges()
	put(int64(len(edges)))
	for _, e := range edges {
		put(int64(e.Src))
		put(int64(e.Dst))
		put(e.Count)
		put(int64(len(e.Prev)))
		for _, p := range e.Prev {
			put(int64(p.Src))
			put(int64(p.Dst))
			put(p.Count)
		}
	}
	return buf
}

// Hash returns the canonical SHA-256 of the graph.
func (g *Graph) Hash() [32]byte { return sha256.Sum256(g.Encode()) }

// Equal reports canonical equality of two graphs.
func (g *Graph) Equal(o *Graph) bool { return g.Hash() == o.Hash() }

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("adcfg(%s: %d nodes, %d edges, %d warps)",
		g.Kernel, len(g.Nodes), len(g.Edges()), g.Warps)
}
