package adcfg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"owl/internal/isa"
)

// refFolder is the reference warp folder: a map operation per block entry
// for each transition count and a per-address rebase with an insertion
// sort per access. It also keeps the edges, with their previous-edge
// counts, in a store of their own. WarpFolder must build byte-identical
// graphs whose derived edges equal the stored ones.
type refFolder struct {
	g        *Graph
	edges    refEdges
	rebase   func(space isa.Space, addr int64) uint64
	visits   map[int]int
	cur      *Visit
	prevPrev int
	prev     int
	prevEdge EdgeKey
	started  bool
}

func newRefFolder(g *Graph, edges refEdges, rebase func(space isa.Space, addr int64) uint64) *refFolder {
	if rebase == nil {
		rebase = func(_ isa.Space, addr int64) uint64 { return uint64(addr) }
	}
	return &refFolder{g: g, edges: edges, rebase: rebase, visits: map[int]int{}, prevPrev: Start, prev: Start}
}

// refEdge is a stored edge: its traversal count and the counts of the
// edges taken before it.
type refEdge struct {
	count int64
	prev  map[EdgeKey]int64
}

// refEdges is the edge store of the reference folders of one graph.
type refEdges map[EdgeKey]*refEdge

// take counts one traversal of k, after prev unless k leaves Start.
func (r refEdges) take(k, prev EdgeKey) {
	e := r[k]
	if e == nil {
		e = &refEdge{prev: map[EdgeKey]int64{}}
		r[k] = e
	}
	e.count++
	if k.Src != Start {
		e.prev[prev]++
	}
}

// sorted returns the stored edges in the order and shape of Graph.Edges.
func (r refEdges) sorted() []Edge {
	byKey := func(a, b EdgeKey) int {
		if a.Src != b.Src {
			return a.Src - b.Src
		}
		return a.Dst - b.Dst
	}
	var out []Edge
	for _, k := range sortedKeys(r, byKey) {
		e := Edge{EdgeKey: k, Count: r[k].count}
		for _, p := range sortedKeys(r[k].prev, byKey) {
			e.Prev = append(e.Prev, EdgeCount{p, r[k].prev[p]})
		}
		out = append(out, e)
	}
	return out
}

func (f *refFolder) EnterBlock(b int) {
	g := f.g
	if !f.started {
		f.started = true
		g.Warps++
	}
	ek := EdgeKey{Src: f.prev, Dst: b}
	f.edges.take(ek, f.prevEdge)
	if f.prev != Start {
		g.node(f.prev).Pairs[PairKey{Src: f.prevPrev, Dst: b}]++
	}
	j := f.visits[b]
	f.visits[b] = j + 1
	n := g.node(b)
	for len(n.Visits) <= j {
		n.Visits = append(n.Visits, &Visit{})
	}
	f.cur = n.Visits[j]
	f.cur.Count++
	f.prevPrev, f.prev, f.prevEdge = f.prev, b, ek
}

func (f *refFolder) MemAccess(memIdx int, space isa.Space, store bool, addrs []int64) {
	if f.cur == nil {
		return
	}
	for len(f.cur.Mems) <= memIdx {
		f.cur.Mems = append(f.cur.Mems, nil)
	}
	h := f.cur.Mems[memIdx]
	if h == nil {
		h = &MemHist{Space: space, Store: store}
		f.cur.Mems[memIdx] = h
	}
	for len(addrs) > 0 {
		n := min(len(addrs), 32)
		keys := make([]uint64, n)
		for i, a := range addrs[:n] {
			k := f.rebase(space, a)
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		var lanes []Cell
		for _, k := range keys {
			if m := len(lanes); m > 0 && lanes[m-1].Addr == k {
				lanes[m-1].Count++
			} else {
				lanes = append(lanes, Cell{Addr: k, Count: 1})
			}
		}
		h.add(lanes)
		addrs = addrs[n:]
	}
}

func (f *refFolder) Finish() {
	if f.started {
		f.edges.take(EdgeKey{Src: f.prev, Dst: End}, f.prevEdge)
		if f.prev != Start {
			f.g.node(f.prev).Pairs[PairKey{Src: f.prevPrev, Dst: End}]++
		}
	}
	clear(f.visits)
	f.cur = nil
	f.prevPrev, f.prev = Start, Start
	f.prevEdge = EdgeKey{}
	f.started = false
}

// foldKey is the per-address rebase of the fold tests, shaped like the
// tracer's: global addresses land in 4096-word "allocations" keyed
// (n+1)<<40 | offset, negative global addresses stay raw with the top bit
// set, and other spaces pass through.
func foldKey(space isa.Space, a int64) uint64 {
	switch {
	case space != isa.SpaceGlobal:
		return uint64(a)
	case a < 0:
		return uint64(a) | 1<<63
	default:
		return uint64(a/4096+1)<<40 | uint64(a%4096)
	}
}

// laneRebase applies foldKey lane by lane.
func laneRebase(space isa.Space, addrs []int64, keys []uint64) {
	for i, a := range addrs {
		keys[i] = foldKey(space, a)
	}
}

// A fold script drives a few folders sharing one graph. Its first byte
// picks the folder count (1 + b%3) and whether they rebase (bit 2 clear).
// Each op byte then holds the action in its low two bits and the folder
// in the rest, followed by the action's operands.
const (
	opEnter  = iota // block
	opAccess        // mem, space and lane kind, lane count, base (2 bytes), lane bytes
	opFinish        // (none)
	opReset         // (none): finish, and reset the folder for the same graph
)

// Lane kinds of an access: how its lane addresses spread from the base.
const (
	lanesAscending = iota // base+i
	lanesNear             // base + byte: within 256 words, with repeats
	lanesSpan511          // the first and last lanes span exactly 511, 512 or 513 words
	lanesSpan512
	lanesSpan513
	lanesWide     // base + 16-bit value << 4: up to a million words
	lanesRaw      // every other lane negative: top-bit raw keys
	lanesStraddle // around a 4096-word allocation boundary
	numLaneKinds
)

type scriptReader struct {
	data []byte
	pos  int
}

func (r *scriptReader) more() bool { return r.pos < len(r.data) }

func (r *scriptReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// lanes decodes one access's lane addresses.
func (r *scriptReader) lanes(kind, n int, base int64) []int64 {
	lanes := make([]int64, n)
	for i := range lanes {
		switch kind {
		case lanesAscending:
			lanes[i] = base + int64(i)
		case lanesNear:
			lanes[i] = base + int64(r.next())
		case lanesSpan511, lanesSpan512, lanesSpan513:
			w := int64(511 + kind - lanesSpan511)
			switch i {
			case 0:
				lanes[i] = base
			case n - 1:
				lanes[i] = base + w - 1
			default:
				lanes[i] = base + int64(r.next()<<8|r.next())%w
			}
		case lanesWide:
			lanes[i] = base + int64(r.next()<<8|r.next())<<4
		case lanesRaw:
			lanes[i] = base + int64(r.next())
			if i%2 == 1 {
				lanes[i] = -lanes[i] - 1
			}
		case lanesStraddle:
			lanes[i] = (base/4096+1)*4096 - 16 + int64(r.next()%32)
		}
	}
	return lanes
}

// folder is what a fold script drives: WarpFolder or refFolder.
type folder interface {
	EnterBlock(b int)
	MemAccess(memIdx int, space isa.Space, store bool, addrs []int64)
	Finish()
}

// runFoldScript folds the script into g, an empty graph of kernel "k",
// through WarpFolders (reference false) or refFolders, and returns the
// graph's encoding and its edges: those the graph derives, or those the
// refFolders stored. The WarpFolders are g's own (Graph.Folder), so a
// reused graph folds through its reused folders; every folder is
// finished at the end.
func runFoldScript(g *Graph, data []byte, reference bool) ([]byte, []Edge) {
	r := &scriptReader{data: data}
	hdr := r.next()
	stored := refEdges{}
	var rebase Rebaser
	var refRebase func(isa.Space, int64) uint64
	if hdr&4 == 0 {
		rebase, refRebase = laneRebase, foldKey
	}
	folders := make([]folder, 1+hdr%3)
	for i := range folders {
		if reference {
			folders[i] = newRefFolder(g, stored, refRebase)
		} else {
			folders[i] = g.Folder(i, rebase)
		}
	}
	for r.more() {
		op := r.next()
		i := (op >> 2) % len(folders)
		f := folders[i]
		switch op & 3 {
		case opEnter:
			f.EnterBlock(r.next() % 8)
		case opAccess:
			mem, sk := r.next()%3, r.next()
			space := isa.Space(1 + sk%3)
			n := 1 + r.next()%48
			base := int64(r.next()<<8 | r.next())
			f.MemAccess(mem, space, mem == 2, r.lanes(sk/3%numLaneKinds, n, base))
		case opFinish:
			f.Finish()
		case opReset:
			f.Finish()
			if reference {
				folders[i] = newRefFolder(g, stored, refRebase)
			} else {
				folders[i] = g.Folder(i, rebase)
			}
		}
	}
	for _, f := range folders {
		f.Finish()
	}
	enc, edges := g.Encode(), g.Edges()
	if reference {
		edges = stored.sorted()
	}
	return enc, edges
}

// scriptBuilder writes fold scripts for the seed corpus.
type scriptBuilder []byte

func newScript(folders int, rebase bool) *scriptBuilder {
	hdr := byte(folders - 1)
	if !rebase {
		hdr |= 4
	}
	return &scriptBuilder{hdr}
}

func (s *scriptBuilder) enter(f, block int) *scriptBuilder {
	*s = append(*s, byte(f<<2|opEnter), byte(block))
	return s
}

func (s *scriptBuilder) access(f, mem int, space isa.Space, kind, n int, base uint16, lanes ...byte) *scriptBuilder {
	*s = append(*s, byte(f<<2|opAccess), byte(mem), byte(kind*3+int(space)-1), byte(n-1), byte(base>>8), byte(base))
	*s = append(*s, lanes...)
	return s
}

func (s *scriptBuilder) finish(f int) *scriptBuilder {
	*s = append(*s, byte(f<<2|opFinish))
	return s
}

func (s *scriptBuilder) reset(f int) *scriptBuilder {
	*s = append(*s, byte(f<<2|opReset))
	return s
}

// randomScript draws a script of random block walks and accesses over
// interleaved folders, with folders finished, reused and reset along the
// way.
func randomScript(r *rand.Rand) []byte {
	s := newScript(1+r.Intn(3), r.Intn(4) != 0)
	for steps := 10 + r.Intn(120); steps > 0; steps-- {
		f := r.Intn(3)
		switch p := r.Intn(20); {
		case p < 9:
			s.enter(f, r.Intn(8))
		case p < 17:
			lanes := make([]byte, 96)
			r.Read(lanes)
			s.access(f, r.Intn(3), isa.Space(1+r.Intn(3)), r.Intn(numLaneKinds), 1+r.Intn(48), uint16(r.Intn(1<<16)), lanes...)
		case p < 19:
			s.finish(f)
		default:
			s.reset(f)
		}
	}
	return *s
}

// foldSeeds is the seed corpus of FuzzWarpFold: each lane kind at warp,
// partial-warp and wider-than-warp lane counts, in every space, then
// random walks over interleaved, reused and reset folders.
func foldSeeds() [][]byte {
	var seeds [][]byte
	pattern := make([]byte, 96)
	for i := range pattern {
		pattern[i] = byte(i*37 + i/3) // repeats and a spread of offsets
	}
	for kind := 0; kind < numLaneKinds; kind++ {
		for _, n := range []int{1, 7, 32, 33, 48} {
			for _, space := range []isa.Space{isa.SpaceGlobal, isa.SpaceShared} {
				s := newScript(1, true).enter(0, 0).
					access(0, 0, space, kind, n, 4000, pattern...).
					access(0, 0, space, kind, n, 4090, pattern[5:]...).
					enter(0, 1).access(0, 1, space, kind, n, 100, pattern[9:]...).
					finish(0)
				seeds = append(seeds, *s)
			}
		}
	}
	// Two folders interleaved over one graph through a loop, with a
	// reset between warps.
	s := newScript(2, true)
	for w := 0; w < 3; w++ {
		for step, b := range []int{0, 1, 2, 1, 2, 3} {
			for f := 0; f < 2; f++ {
				s.enter(f, (b+f*w)%4).access(f, step%2, isa.SpaceGlobal, lanesNear, 32, uint16(8*w), pattern[step:]...)
			}
		}
		s.finish(0).reset(1)
	}
	seeds = append(seeds, *s)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seeds = append(seeds, randomScript(r))
	}
	return seeds
}

// FuzzWarpFold checks WarpFolder against the reference folder on fold
// scripts: both must encode the same graph, and the edges the folded
// graph derives must equal the reference's stored edges. Each script
// folds into a fresh graph through new folders, then again into a graph
// reset from the previous script's, through that graph's folders reset
// for it, as the tracer reuses graphs and folders from launch to launch.
// Graph.Equal must agree with the encodings: the folded graphs equal the
// reference graph, and the reference graph equals the previous script's
// exactly when their encodings are the same bytes.
func FuzzWarpFold(f *testing.F) {
	for _, s := range foldSeeds() {
		f.Add(s)
	}
	reused := NewGraph("k") // the last script's graph
	var prev *Graph         // the last script's reference graph
	var prevEnc []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := NewGraph("k")
		want, wantEdges := runFoldScript(ref, data, true)
		if prev != nil && prev.Equal(ref) != bytes.Equal(prevEnc, want) {
			t.Fatalf("Equal with the previous script's graph = %v, but its encoding equal = %v, for script %x", prev.Equal(ref), bytes.Equal(prevEnc, want), data)
		}
		prev, prevEnc = ref, want
		for pass := 0; pass < 2; pass++ {
			g := NewGraph("k")
			if pass == 1 {
				reused.Reset("k")
				g = reused
			}
			got, edges := runFoldScript(g, data, false)
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d: folded graph differs from the reference (%d vs %d bytes) for script %x", pass, len(got), len(want), data)
			}
			if !g.Equal(ref) || !ref.Equal(g) {
				t.Fatalf("pass %d: folded graph encodes as the reference but is not Equal to it, for script %x", pass, data)
			}
			if !reflect.DeepEqual(edges, wantEdges) {
				t.Fatalf("pass %d: derived edges differ from the stored ones for script %x:\n got %v\nwant %v", pass, data, edges, wantEdges)
			}
		}
	})
}

// BenchmarkWarpFold measures folding one warp's events: block entries
// and memory accesses through a lane rebaser. The cases are a coalesced
// ascending access, a T-table gather of 32 lanes within 256 words, a
// scatter across allocations, and a branchy block walk with a broadcast
// access per block.
func BenchmarkWarpFold(b *testing.B) {
	type step struct {
		block int
		lanes []int64
	}
	r := rand.New(rand.NewSource(1))
	warp := func(blocks []int, lanes func(i int) []int64) []step {
		steps := make([]step, len(blocks))
		for i, blk := range blocks {
			steps[i] = step{blk, lanes(i)}
		}
		return steps
	}
	straight := make([]int, 16)
	for i := range straight {
		straight[i] = i % 4
	}
	branchy := make([]int, 64)
	for i := range branchy {
		branchy[i] = 2*(i%8) + r.Intn(2)
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"coalesced", warp(straight, func(i int) []int64 {
			lanes := make([]int64, 32)
			for l := range lanes {
				lanes[l] = int64(4096 + 32*i + l)
			}
			return lanes
		})},
		{"gather", warp(straight, func(int) []int64 {
			lanes := make([]int64, 32)
			for l := range lanes {
				lanes[l] = int64(8192 + r.Intn(256))
			}
			return lanes
		})},
		{"scatter", warp(straight, func(int) []int64 {
			lanes := make([]int64, 32)
			for l := range lanes {
				lanes[l] = int64(r.Intn(4)*4096 + r.Intn(4096))
			}
			return lanes
		})},
		{"branchy", warp(branchy, func(i int) []int64 {
			lanes := make([]int64, 32)
			for l := range lanes {
				lanes[l] = int64(i)
			}
			return lanes
		})},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			g := NewGraph("k")
			f := NewWarpFolder(g, laneRebase)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range tc.steps {
					f.EnterBlock(s.block)
					f.MemAccess(0, isa.SpaceGlobal, false, s.lanes)
				}
				f.Finish()
			}
		})
	}
}
