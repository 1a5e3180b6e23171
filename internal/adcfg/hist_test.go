package adcfg

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"owl/internal/isa"
)

// countAt returns h's count for address a (0 when absent).
func countAt(h *MemHist, a uint64) int64 {
	i := seek(h.Cells, 0, a)
	if i < len(h.Cells) && h.Cells[i].Addr == a {
		return h.Cells[i].Count
	}
	return 0
}

// histKey locates one histogram: block, visit index, memory instruction.
type histKey [3]int

// refHists is the reference model of a graph's histograms: plain maps,
// keyed by position.
type refHists map[histKey]map[uint64]int64

func (r refHists) addAll(o refHists) {
	for k, m := range o {
		if r[k] == nil {
			r[k] = map[uint64]int64{}
		}
		for a, c := range m {
			r[k][a] += c
		}
	}
}

// sortedKeys returns m's keys ordered by compare.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

// refSummary is the count-weighted mean and max-min range of m, summed in
// ascending address order.
func refSummary(m map[uint64]int64) (mean, spread float64) {
	addrs := sortedKeys(m, cmp.Compare[uint64])
	var sum, total float64
	for _, a := range addrs {
		w := float64(m[a])
		sum += float64(a) * w
		total += w
	}
	return sum / total, float64(addrs[len(addrs)-1]) - float64(addrs[0])
}

// randomLanes draws one access's lane addresses below span: ascending
// (coalesced), broadcast, or scattered. Some accesses carry more lanes
// than a warp, which the folder takes in warp-sized pieces.
func randomLanes(r *rand.Rand, span int) []int64 {
	lanes := make([]int64, 1+r.Intn(48))
	switch r.Intn(3) {
	case 0:
		base, stride := r.Intn(span), 1+r.Intn(4)
		for i := range lanes {
			lanes[i] = int64((base + i*stride) % span)
		}
	case 1:
		a := int64(r.Intn(span))
		for i := range lanes {
			lanes[i] = a
		}
	default:
		for i := range lanes {
			lanes[i] = int64(r.Intn(span))
		}
	}
	return lanes
}

// foldRandomWarps folds 1-3 random warps into g and returns what they
// added to its histograms.
func foldRandomWarps(r *rand.Rand, g *Graph, span int) refHists {
	ref := refHists{}
	f := NewWarpFolder(g, nil)
	for w := 1 + r.Intn(3); w > 0; w-- {
		visits := map[int]int{}
		for steps := 1 + r.Intn(5); steps > 0; steps-- {
			b := r.Intn(3)
			f.EnterBlock(b)
			j := visits[b]
			visits[b]++
			mem := r.Intn(2)
			lanes := randomLanes(r, span)
			f.MemAccess(mem, isa.SpaceGlobal, mem == 1, lanes)
			k := histKey{b, j, mem}
			if ref[k] == nil {
				ref[k] = map[uint64]int64{}
			}
			for _, a := range lanes {
				ref[k][uint64(a)]++
			}
		}
		f.Finish()
	}
	return ref
}

// refEncode is Encode with every histogram taken from ref and written by
// sorting its map's keys: the encoder of the map-backed histograms.
func refEncode(g *Graph, ref refHists) []byte {
	var buf []byte
	put := func(v int64) { buf = binary.AppendVarint(buf, v) }
	buf = append(buf, g.Kernel...)
	buf = append(buf, 0)
	put(g.Warps)
	ids := sortedKeys(g.Nodes, cmp.Compare[int])
	put(int64(len(ids)))
	for _, id := range ids {
		n := g.Nodes[id]
		put(int64(id))
		put(int64(len(n.Visits)))
		for j, v := range n.Visits {
			put(v.Count)
			put(int64(len(v.Mems)))
			for mi, h := range v.Mems {
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
				m := ref[histKey{id, j, mi}]
				addrs := sortedKeys(m, cmp.Compare[uint64])
				put(int64(len(addrs)))
				for _, a := range addrs {
					buf = binary.AppendUvarint(buf, a)
					put(m[a])
				}
			}
		}
		pairs := sortedKeys(n.Pairs, func(a, b PairKey) int {
			if a.Src != b.Src {
				return a.Src - b.Src
			}
			return a.Dst - b.Dst
		})
		put(int64(len(pairs)))
		for _, pk := range pairs {
			put(int64(pk.Src))
			put(int64(pk.Dst))
			put(n.Pairs[pk])
		}
	}
	byKey := func(a, b EdgeKey) int {
		if a.Src != b.Src {
			return a.Src - b.Src
		}
		return a.Dst - b.Dst
	}
	eks := sortedKeys(g.Edges, byKey)
	put(int64(len(eks)))
	for _, ek := range eks {
		e := g.Edges[ek]
		put(int64(ek.Src))
		put(int64(ek.Dst))
		put(e.Count)
		prevs := sortedKeys(e.Prev, byKey)
		put(int64(len(prevs)))
		for _, pk := range prevs {
			put(int64(pk.Src))
			put(int64(pk.Dst))
			put(e.Prev[pk])
		}
	}
	return buf
}

// checkAgainstRef asserts g's histograms hold exactly ref's counts, in
// strictly ascending cells, and returns the most cells any one holds.
func checkAgainstRef(t *testing.T, g *Graph, ref refHists) int {
	t.Helper()
	seen, most := 0, 0
	for id, n := range g.Nodes {
		for j, v := range n.Visits {
			for mi, h := range v.Mems {
				if h == nil {
					continue
				}
				k := histKey{id, j, mi}
				m := ref[k]
				h.Settle()
				if len(h.Cells) != len(m) {
					t.Fatalf("histogram %v holds %d cells, want %d", k, len(h.Cells), len(m))
				}
				for i, c := range h.Cells {
					if i > 0 && h.Cells[i-1].Addr >= c.Addr {
						t.Fatalf("histogram %v cells not strictly ascending at %d: %v", k, i, h.Cells)
					}
					if m[c.Addr] != c.Count {
						t.Fatalf("histogram %v count of %d = %d, want %d", k, c.Addr, c.Count, m[c.Addr])
					}
				}
				seen++
				most = max(most, len(h.Cells))
			}
		}
	}
	if seen != len(ref) {
		t.Fatalf("graph holds %d histograms, reference %d", seen, len(ref))
	}
	return most
}

// TestHistDifferential runs random fold/Merge/MergeSummaries sequences
// against a map-backed reference, across the small-class promotion
// boundary, and checks counts, summaries, the canonical encoding, and the
// JSON round-trip.
func TestHistDifferential(t *testing.T) {
	promoted := false
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		span := []int{8, 40, 300}[seed%3]
		g, ref := NewGraph("k"), refHists{}
		for step := 0; step < 40; step++ {
			switch r.Intn(3) {
			case 0:
				ref.addAll(foldRandomWarps(r, g, span))
			case 1:
				o := NewGraph("k")
				oref := foldRandomWarps(r, o, span)
				g.Merge(o)
				ref.addAll(oref)
				Recycle(o)
			default:
				o := NewGraph("k")
				oref := foldRandomWarps(r, o, span)
				reported := 0
				g.MergeSummaries(o, func(block, visit, mem int, mean, spread float64) {
					reported++
					wm, ws := refSummary(oref[histKey{block, visit, mem}])
					if mean != wm || spread != ws {
						t.Fatalf("seed %d: summary of %v = (%v, %v), want (%v, %v)",
							seed, histKey{block, visit, mem}, mean, spread, wm, ws)
					}
				})
				if reported != len(oref) {
					t.Fatalf("seed %d: %d summaries for %d histograms", seed, reported, len(oref))
				}
				ref.addAll(oref)
				Recycle(o)
			}
			if most := checkAgainstRef(t, g, ref); most > smallHist {
				promoted = true
			}
			if got, want := g.Encode(), refEncode(g, ref); string(got) != string(want) {
				t.Fatalf("seed %d step %d: Encode differs from the sorted-map encoding", seed, step)
			}
		}

		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var wire graphJSON
		if err := json.Unmarshal(data, &wire); err != nil {
			t.Fatal(err)
		}
		for _, nj := range wire.Nodes {
			for j, vj := range nj.Visits {
				for mi, mj := range vj.Mems {
					if mj != nil && !maps.Equal(mj.Addrs, ref[histKey{nj.Block, j, mi}]) {
						t.Fatalf("seed %d: JSON addrs of %v differ from the reference", seed, histKey{nj.Block, j, mi})
					}
				}
			}
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, &back, ref)
		if back.Hash() != g.Hash() {
			t.Fatalf("seed %d: JSON round-trip changed the hash", seed)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("seed %d: JSON round-trip changed the bytes", seed)
		}
		Recycle(g)
	}
	if !promoted {
		t.Fatal("no histogram outgrew the small class; test is vacuous")
	}
}

// TestSummaryMeanDeterministic folds a histogram whose count-weighted
// address sum passes 2^53, where float addition stops being associative,
// and checks that repeated MergeSummaries report one mean bit pattern:
// the sum must run in a fixed order.
func TestSummaryMeanDeterministic(t *testing.T) {
	run := NewGraph("k")
	f := NewWarpFolder(run, nil)
	f.EnterBlock(0)
	const base = int64(7) << 40
	accesses := 0
	for k := 0; accesses < 20000; k++ {
		lanes := make([]int64, 1+k%32)
		for i := range lanes {
			lanes[i] = base + int64(3*((k*7+i*13)%640)+1)
		}
		f.MemAccess(0, isa.SpaceGlobal, false, lanes)
		accesses += len(lanes)
	}
	f.Finish()
	if h := run.Nodes[0].Visits[0].Mems[0]; float64(base)*float64(h.Total()) < 1<<53 {
		t.Fatal("fixture sum stays below 2^53; test is vacuous")
	}

	var first uint64
	for i := 0; i < 200; i++ {
		g := NewGraph("k")
		g.MergeSummaries(run, func(_, _, _ int, mean, _ float64) {
			bits := math.Float64bits(mean)
			if i == 0 {
				first = bits
			} else if bits != first {
				t.Fatalf("merge %d: mean %v, first merge gave %v", i, mean, math.Float64frombits(first))
			}
		})
		Recycle(g)
	}
}

// runGraph returns a one-warp run graph whose only histogram (block 0,
// visit 0, memory instruction 0) counts addrs.
func runGraph(addrs ...int64) *Graph {
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	f.EnterBlock(0)
	f.MemAccess(0, isa.SpaceGlobal, false, addrs)
	f.Finish()
	f.Release()
	return g
}

// keyRange returns the addresses lo, lo+1, ..., hi.
func keyRange(lo, hi int64) []int64 {
	var out []int64
	for a := lo; a <= hi; a++ {
		out = append(out, a)
	}
	return out
}

func hist0(g *Graph) *MemHist { return g.Nodes[0].Visits[0].Mems[0] }

// mergeRun merges a run counting addrs into g and into ref with the
// evidence merge, MergeSummaries.
func mergeRun(g *Graph, ref map[uint64]int64, addrs ...int64) {
	o := runGraph(addrs...)
	g.MergeSummaries(o, nil)
	Recycle(o)
	for _, a := range addrs {
		ref[uint64(a)]++
	}
}

// plainMerge merges a run counting addrs into g and into ref with Merge.
func plainMerge(g *Graph, ref map[uint64]int64, addrs ...int64) {
	o := runGraph(addrs...)
	g.Merge(o)
	Recycle(o)
	for _, a := range addrs {
		ref[uint64(a)]++
	}
}

// checkHist asserts h holds exactly ref's counts once settled.
func checkHist(t *testing.T, h *MemHist, ref map[uint64]int64) {
	t.Helper()
	checkAgainstRef(t, &Graph{Nodes: map[int]*Node{0: {Visits: []*Visit{{Mems: []*MemHist{h}}}}}},
		refHists{{0, 0, 0}: ref})
}

// TestDensePromotion walks one evidence histogram through its states:
// cells through its first run whatever its size, dense once a merge grows
// it past smallHist cells (and not at smallHist), widened below its base
// and above its end, kept dense while its counted keys span less than
// denseSpan even where the block-aligned array would not, and back to
// cells for good once they span denseSpan or more.
func TestDensePromotion(t *testing.T) {
	g, ref := NewGraph("k"), map[uint64]int64{}
	mergeRun(g, ref, keyRange(1000, 1019)...)
	mergeRun(g, ref, keyRange(1008, 1031)...) // 32 cells: still the small class
	if h := hist0(g); h.dense != nil || len(h.Cells) != smallHist {
		t.Fatalf("at %d cells: dense %v, %d cells; want cells", smallHist, h.dense != nil, len(h.Cells))
	}
	mergeRun(g, ref, 1000, 1032) // the 33rd cell
	h := hist0(g)
	if h.dense == nil || !h.stale || h.Cells != nil {
		t.Fatalf("at %d cells: dense %v, stale %v; want dense with the cell buffer freed", smallHist+1, h.dense != nil, h.stale)
	}
	checkHist(t, h, ref)

	mergeRun(g, ref, 3, 1030) // below base: widens downwards
	if h.dense == nil || h.base > 3 {
		t.Fatalf("after a key below base: dense %v, base %d", h.dense != nil, h.base)
	}
	mergeRun(g, ref, 1040, 2100) // above the end
	checkHist(t, h, ref)
	if h.dense == nil {
		t.Fatal("a span under the bound left the dense state")
	}
	// The keys 3..4098 span one short of the bound, but whole blocks
	// around them would span 0..4159: the counts stay dense, sized exactly.
	mergeRun(g, ref, denseSpan+2)
	if h.dense == nil || h.base != 3 || len(h.dense) != denseSpan {
		t.Fatalf("keys 3..%d: dense %v, base %d, %d counts; want dense over exactly the keys",
			denseSpan+2, h.dense != nil, h.base, len(h.dense))
	}
	checkHist(t, h, ref)
	mergeRun(g, ref, 4, denseSpan) // inside: no reallocation
	if h.dense == nil || h.base != 3 || len(h.dense) != denseSpan {
		t.Fatal("keys inside the dense counts changed their bounds")
	}
	mergeRun(g, ref, denseSpan+3) // the span reaches the bound
	if h.dense != nil || h.stale {
		t.Fatalf("past the bound: dense %v, stale %v; want cells", h.dense != nil, h.stale)
	}
	checkHist(t, h, ref)
	mergeRun(g, ref, 5, 6, 7)
	if h.dense != nil {
		t.Fatal("a histogram past the bound went dense again")
	}
	checkHist(t, h, ref)

	// A first run larger than the small class keeps its cells; the next
	// merge switches it.
	g2, ref2 := NewGraph("k"), map[uint64]int64{}
	mergeRun(g2, ref2, keyRange(0, 59)...)
	if h := hist0(g2); h.dense != nil {
		t.Fatal("a histogram went dense on its first run")
	}
	mergeRun(g2, ref2, 7)
	if h := hist0(g2); h.dense == nil {
		t.Fatal("a histogram past the small class stayed cells on its second run")
	}
	checkHist(t, hist0(g2), ref2)
	Recycle(g)
	Recycle(g2)
}

// TestMergeStaysCells checks that only the evidence merge switches a
// histogram to dense counts: Merge and the warp fold keep every histogram
// of a trace as current cells however large it grows.
func TestMergeStaysCells(t *testing.T) {
	g, ref := NewGraph("k"), map[uint64]int64{}
	plainMerge(g, ref, keyRange(0, 40)...)
	plainMerge(g, ref, keyRange(30, 90)...)
	plainMerge(g, ref, 5, 200)
	f := NewWarpFolder(g, nil)
	f.EnterBlock(0)
	f.MemAccess(0, isa.SpaceGlobal, false, []int64{1, 300})
	f.Finish()
	f.Release()
	ref[1]++
	ref[300]++
	if h := hist0(g); h.dense != nil || h.stale {
		t.Fatal("Merge or the warp fold switched a histogram to dense counts")
	}
	checkHist(t, hist0(g), ref)
	Recycle(g)
}

// TestDenseAnyCallPath checks that the dense state belongs to the
// histogram: once the evidence merge has switched it, a plain Merge, a
// MergeSummaries and a warp fold into the graph all add into the dense
// counts, in any order, with or without a read in between, and the
// summaries still come from the run's own cells.
func TestDenseAnyCallPath(t *testing.T) {
	g, ref := NewGraph("k"), map[uint64]int64{}
	summarize := func(addrs ...int64) {
		o := runGraph(addrs...)
		m := map[uint64]int64{}
		for _, a := range addrs {
			m[uint64(a)]++
			ref[uint64(a)]++
		}
		wm, ws := refSummary(m)
		g.MergeSummaries(o, func(_, _, _ int, mean, spread float64) {
			if mean != wm || spread != ws {
				t.Fatalf("summary (%v, %v), want (%v, %v)", mean, spread, wm, ws)
			}
		})
		Recycle(o)
	}
	summarize(keyRange(0, 29)...)
	summarize(keyRange(20, 45)...) // dense now
	if hist0(g).dense == nil {
		t.Fatal("fixture did not go dense")
	}
	plainMerge(g, ref, 1, 2, 50) // plain Merge on the stale histogram
	summarize(4, 60)
	f := NewWarpFolder(g, nil)
	f.EnterBlock(0)
	f.MemAccess(0, isa.SpaceGlobal, false, []int64{3, 3, 70})
	f.Finish()
	f.Release()
	for _, a := range []uint64{3, 3, 70} {
		ref[a]++
	}
	checkHist(t, hist0(g), ref) // settles
	plainMerge(g, ref, 9, 80)   // stale again after a read
	summarize(keyRange(0, 5)...)
	checkHist(t, hist0(g), ref)
	Recycle(g)
}

// denseGraph returns a graph whose first histogram is dense and stale
// after merges of runs counting the fixture's addresses, and an all-cell
// graph folded from the same addresses.
func denseGraph(t *testing.T) (dense, cells *Graph) {
	t.Helper()
	runs := [][]int64{keyRange(0, 20), keyRange(15, 40), {2, 41, 90}, {300}}
	dense, cells = NewGraph("k"), NewGraph("k")
	f := NewWarpFolder(cells, nil)
	for _, addrs := range runs {
		o := runGraph(addrs...)
		dense.MergeSummaries(o, nil)
		Recycle(o)
		f.EnterBlock(0)
		f.MemAccess(0, isa.SpaceGlobal, false, addrs)
		f.Finish()
	}
	f.Release()
	dense.Warps = cells.Warps
	if h := hist0(dense); h.dense == nil || !h.stale {
		t.Fatal("fixture histogram is not dense and stale")
	}
	if hist0(cells).dense != nil {
		t.Fatal("the fold went dense")
	}
	return dense, cells
}

// TestDenseReaders checks every reader of a stale dense graph against the
// all-cell graph of the same counts: Encode, JSON, Total, Clone (whose
// copy holds cells), and Recycle, which must leave no dense state behind.
func TestDenseReaders(t *testing.T) {
	d, c := denseGraph(t)
	if string(d.Encode()) != string(c.Encode()) {
		t.Fatal("Encode of a dense graph differs from the cell graph")
	}
	d, _ = denseGraph(t)
	dj, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(dj) != string(cj) {
		t.Fatalf("JSON of a dense graph differs:\n%s\n%s", dj, cj)
	}
	d, _ = denseGraph(t)
	if got, want := hist0(d).Total(), hist0(c).Total(); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	d, _ = denseGraph(t)
	cl := d.Clone()
	if h := hist0(cl); h.dense != nil || h.stale {
		t.Fatal("Clone copied the dense state")
	}
	if string(cl.Encode()) != string(c.Encode()) {
		t.Fatal("Clone of a dense graph differs from the cell graph")
	}

	d, _ = denseGraph(t)
	h := hist0(d)
	Recycle(d)
	if h.dense != nil || h.stale || h.base != 0 || len(h.Cells) != 0 {
		t.Fatal("Recycle left dense state in a histogram")
	}
	d, _ = denseGraph(t)
	d.Encode() // settled: the cell buffer is pooled again
	h = hist0(d)
	Recycle(d)
	if h.dense != nil || h.stale || len(h.Cells) != 0 {
		t.Fatal("Recycle left dense state in a settled histogram")
	}
	// Graphs drawn after the recycles fold and merge correctly.
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph("k")
		ref := foldRandomWarps(r, g, 40)
		checkAgainstRef(t, g, ref)
		Recycle(g)
	}
	Recycle(cl)
	Recycle(c)
}

// TestDenseHistDifferential runs random sequences of Merge,
// MergeSummaries and warp folds into one evidence graph against the map
// reference, reading (and so settling) it only at some steps, over key
// spans that keep histograms as cells, take them dense, and carry dense
// ones past the bound. Only MergeSummaries may switch a histogram to
// dense counts. It requires every transition to have happened.
func TestDenseHistDifferential(t *testing.T) {
	var dense, widenedDown, back bool
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		width := []int{40, 300, 2 * denseSpan}[seed%3]
		g, ref := NewGraph("k"), refHists{}
		bases := map[*MemHist]uint64{} // the dense histograms' bases
		for step := 0; step < 60; step++ {
			op := r.Intn(3)
			switch op {
			case 0:
				ref.addAll(foldRandomWarps(r, g, width))
			case 1:
				o := NewGraph("k")
				ref.addAll(foldRandomWarps(r, o, width))
				g.Merge(o)
				Recycle(o)
			default:
				o := NewGraph("k")
				oref := foldRandomWarps(r, o, width)
				g.MergeSummaries(o, func(block, visit, mem int, mean, spread float64) {
					wm, ws := refSummary(oref[histKey{block, visit, mem}])
					if mean != wm || spread != ws {
						t.Fatalf("seed %d: summary (%v, %v), want (%v, %v)", seed, mean, spread, wm, ws)
					}
				})
				ref.addAll(oref)
				Recycle(o)
			}
			for _, n := range g.Nodes {
				for _, v := range n.Visits {
					for _, h := range v.Mems {
						if h == nil {
							continue
						}
						base, was := bases[h]
						if h.dense != nil && !was && op != 2 {
							t.Fatalf("seed %d: operation %d switched a histogram to dense counts", seed, op)
						}
						switch {
						case h.dense != nil:
							dense = true
							widenedDown = widenedDown || was && h.base < base
							bases[h] = h.base
						case was:
							back = true
							delete(bases, h)
						}
					}
				}
			}
			if r.Intn(4) == 0 {
				checkAgainstRef(t, g, ref)
			}
		}
		checkAgainstRef(t, g, ref)
		if string(g.Encode()) != string(refEncode(g, ref)) {
			t.Fatalf("seed %d: Encode differs from the sorted-map encoding", seed)
		}
		Recycle(g)
	}
	if !dense || !widenedDown || !back {
		t.Fatalf("transitions seen: dense %v, widened below base %v, back to cells %v; test is vacuous",
			dense, widenedDown, back)
	}
}
