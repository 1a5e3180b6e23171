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
				checkCells(t, k, h.Cells, ref[k])
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

// checkCells asserts the cells of histogram k hold exactly m's counts,
// in strictly ascending order.
func checkCells(t *testing.T, k histKey, cells []Cell, m map[uint64]int64) {
	t.Helper()
	if len(cells) != len(m) {
		t.Fatalf("histogram %v holds %d cells, want %d", k, len(cells), len(m))
	}
	for i, c := range cells {
		if i > 0 && cells[i-1].Addr >= c.Addr {
			t.Fatalf("histogram %v cells not strictly ascending at %d: %v", k, i, cells)
		}
		if m[c.Addr] != c.Count {
			t.Fatalf("histogram %v count of %d = %d, want %d", k, c.Addr, c.Count, m[c.Addr])
		}
	}
}

// checkSummaries asserts Summary gives each of run's histograms the mean
// and spread of its reference.
func checkSummaries(t *testing.T, run *Graph, ref refHists) {
	t.Helper()
	for id, n := range run.Nodes {
		for j, v := range n.Visits {
			for mi, h := range v.Mems {
				if h == nil {
					continue
				}
				k := histKey{id, j, mi}
				mean, spread := Summary(h.Cells)
				if wm, ws := refSummary(ref[k]); mean != wm || spread != ws {
					t.Fatalf("summary of %v = (%v, %v), want (%v, %v)", k, mean, spread, wm, ws)
				}
			}
		}
	}
}

// TestHistDifferential runs random fold/Merge sequences against a
// map-backed reference, across the small-class promotion boundary, and
// checks counts, summaries, the canonical encoding, and the JSON
// round-trip.
func TestHistDifferential(t *testing.T) {
	promoted := false
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		span := []int{8, 40, 300}[seed%3]
		g, ref := NewGraph("k"), refHists{}
		for step := 0; step < 40; step++ {
			if r.Intn(2) == 0 {
				ref.addAll(foldRandomWarps(r, g, span))
			} else {
				o := NewGraph("k")
				oref := foldRandomWarps(r, o, span)
				checkSummaries(t, o, oref)
				g.Merge(o)
				ref.addAll(oref)
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
	}
	if !promoted {
		t.Fatal("no histogram outgrew the small class; test is vacuous")
	}
}

// TestSummaryMeanDeterministic folds a histogram whose count-weighted
// address sum passes 2^53, where float addition stops being associative,
// and checks that Summary always reports the mean of the sum in ascending
// address order, one bit pattern.
func TestSummaryMeanDeterministic(t *testing.T) {
	run := NewGraph("k")
	f := NewWarpFolder(run, nil)
	f.EnterBlock(0)
	const base = int64(7) << 40
	ref := map[uint64]int64{}
	accesses := 0
	for k := 0; accesses < 20000; k++ {
		lanes := make([]int64, 1+k%32)
		for i := range lanes {
			lanes[i] = base + int64(3*((k*7+i*13)%640)+1)
			ref[uint64(lanes[i])]++
		}
		f.MemAccess(0, isa.SpaceGlobal, false, lanes)
		accesses += len(lanes)
	}
	f.Finish()
	h := run.Nodes[0].Visits[0].Mems[0]
	if float64(base)*float64(h.Total()) < 1<<53 {
		t.Fatal("fixture sum stays below 2^53; test is vacuous")
	}
	want, _ := refSummary(ref)
	for i := 0; i < 200; i++ {
		if mean, _ := Summary(h.Cells); math.Float64bits(mean) != math.Float64bits(want) {
			t.Fatalf("call %d: mean %v, want %v", i, mean, want)
		}
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

// addRun adds a run counting addrs to e and to ref.
func addRun(e *EvidenceHist, ref map[uint64]int64, addrs ...int64) {
	o := runGraph(addrs...)
	e.Add(o.Nodes[0].Visits[0].Mems[0].Cells)
	for _, a := range addrs {
		ref[uint64(a)]++
	}
}

// checkHist asserts e holds exactly ref's counts.
func checkHist(t *testing.T, e *EvidenceHist, ref map[uint64]int64) {
	t.Helper()
	checkCells(t, histKey{}, e.Cells(), ref)
}

// TestDensePromotion walks one evidence histogram through its states:
// cells through its first run whatever its size, dense once a run grows
// it past smallHist cells (and not at smallHist), widened below its base
// and above its end, kept dense while its counted keys span less than
// denseSpan even where the block-aligned array would not, and back to
// cells for good once they span denseSpan or more.
func TestDensePromotion(t *testing.T) {
	h, ref := &EvidenceHist{}, map[uint64]int64{}
	addRun(h, ref, keyRange(1000, 1019)...)
	addRun(h, ref, keyRange(1008, 1031)...) // 32 cells: still the small class
	if h.dense != nil || len(h.cells) != smallHist {
		t.Fatalf("at %d cells: dense %v, %d cells; want cells", smallHist, h.dense != nil, len(h.cells))
	}
	addRun(h, ref, 1000, 1032) // the 33rd cell
	if h.dense == nil || h.cells != nil {
		t.Fatalf("at %d cells: dense %v; want dense with the cell buffer freed", smallHist+1, h.dense != nil)
	}
	checkHist(t, h, ref)

	addRun(h, ref, 3, 1030) // below base: widens downwards
	if h.dense == nil || h.base > 3 {
		t.Fatalf("after a key below base: dense %v, base %d", h.dense != nil, h.base)
	}
	addRun(h, ref, 1040, 2100) // above the end
	checkHist(t, h, ref)
	if h.dense == nil {
		t.Fatal("a span under the bound left the dense state")
	}
	// The keys 3..4098 span one short of the bound, but whole blocks
	// around them would span 0..4159: the counts stay dense, sized exactly.
	addRun(h, ref, denseSpan+2)
	if h.dense == nil || h.base != 3 || len(h.dense) != denseSpan {
		t.Fatalf("keys 3..%d: dense %v, base %d, %d counts; want dense over exactly the keys",
			denseSpan+2, h.dense != nil, h.base, len(h.dense))
	}
	checkHist(t, h, ref)
	addRun(h, ref, 4, denseSpan) // inside: no reallocation
	if h.dense == nil || h.base != 3 || len(h.dense) != denseSpan {
		t.Fatal("keys inside the dense counts changed their bounds")
	}
	addRun(h, ref, denseSpan+3) // the span reaches the bound
	if h.dense != nil {
		t.Fatal("past the bound: dense; want cells")
	}
	checkHist(t, h, ref)
	addRun(h, ref, 5, 6, 7)
	if h.dense != nil {
		t.Fatal("a histogram past the bound went dense again")
	}
	checkHist(t, h, ref)

	// A first run larger than the small class keeps its cells; the next
	// run switches it.
	h2, ref2 := &EvidenceHist{}, map[uint64]int64{}
	addRun(h2, ref2, keyRange(0, 59)...)
	if h2.dense != nil {
		t.Fatal("a histogram went dense on its first run")
	}
	addRun(h2, ref2, 7)
	if h2.dense == nil {
		t.Fatal("a histogram past the small class stayed cells on its second run")
	}
	checkHist(t, h2, ref2)
}

// TestDenseHistDifferential adds random runs into evidence histograms
// against the map reference, reading them only at some steps, over key
// spans that keep histograms as cells, take them dense, and carry dense
// ones past the bound. It requires every transition to have happened.
func TestDenseHistDifferential(t *testing.T) {
	var dense, widenedDown, back bool
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		width := []int{40, 300, 2 * denseSpan}[seed%3]
		ev, ref := map[histKey]*EvidenceHist{}, refHists{}
		bases := map[histKey]uint64{} // the dense histograms' bases
		for step := 0; step < 60; step++ {
			o := NewGraph("k")
			oref := foldRandomWarps(r, o, width)
			checkSummaries(t, o, oref)
			for id, n := range o.Nodes {
				for j, v := range n.Visits {
					for mi, h := range v.Mems {
						if h == nil {
							continue
						}
						k := histKey{id, j, mi}
						if ev[k] == nil {
							ev[k] = &EvidenceHist{}
						}
						ev[k].Add(h.Cells)
					}
				}
			}
			ref.addAll(oref)
			for k, h := range ev {
				base, was := bases[k]
				switch {
				case h.dense != nil:
					dense = true
					widenedDown = widenedDown || was && h.base < base
					bases[k] = h.base
				case was:
					back = true
					delete(bases, k)
				}
			}
			if r.Intn(4) == 0 {
				for k, h := range ev {
					checkCells(t, k, h.Cells(), ref[k])
				}
			}
		}
		for k, h := range ev {
			checkCells(t, k, h.Cells(), ref[k])
		}
		if len(ev) != len(ref) {
			t.Fatalf("seed %d: %d evidence histograms, reference %d", seed, len(ev), len(ref))
		}
	}
	if !dense || !widenedDown || !back {
		t.Fatalf("transitions seen: dense %v, widened below base %v, back to cells %v; test is vacuous",
			dense, widenedDown, back)
	}
}
