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
