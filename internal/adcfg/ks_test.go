package adcfg

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"owl/internal/stats"
)

// histSample is the weighted sample the diff channel's histogram test
// was built on before the merge walk: one observation per cell, value
// the key as float64, weight its count. KSTestEff over it is the
// reference KSDistance is checked against.
func histSample(cells []Cell) *stats.Sample {
	s := stats.NewWeightedSample(len(cells))
	for _, c := range cells {
		s.Add(float64(c.Addr), float64(c.Count))
	}
	return s
}

// randomRun returns up to n strictly ascending cells with keys in
// lo..lo+span-1 and counts 1..4; at least one.
func randomRun(r *rand.Rand, lo, span uint64, n int) []Cell {
	keys := map[uint64]bool{}
	for range 1 + r.Intn(n) {
		keys[lo+uint64(r.Int63n(int64(span)))] = true
	}
	var out []Cell
	for k := range keys {
		out = append(out, Cell{Addr: k, Count: 1 + r.Int63n(4)})
	}
	slices.SortFunc(out, func(a, b Cell) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

// TestKSDistanceMatchesKSTestEff builds pairs of evidence histograms from
// random runs and requires KSDistance, completed by stats.KSFromD, to
// give D, p, threshold and verdict bit-identical to stats.KSTestEff over
// histSample of their cells. The pairs share keys or are disjoint, hold
// a single cell, sit in the cell or the dense state on either side, widen
// their dense counts below the base, go back to cells past the dense
// bound, and hold keys above 2^53, where distinct keys round to one
// float64 and step the ECDF as one. Every one of these cases must occur.
func TestKSDistanceMatchesKSTestEff(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	bases := []uint64{0, 4000, 1<<53 - 300, 1 << 60, 1<<63 + 5}
	seen := map[string]bool{}
	for iter := 0; iter < 2000; iter++ {
		base := bases[r.Intn(len(bases))]
		span := []uint64{1, 40, 300, 2 * denseSpan}[r.Intn(4)]
		shift := []uint64{0, 0, span / 2, span + 100}[r.Intn(4)] // b's keys: shared, overlapping, disjoint
		var hs [2]EvidenceHist
		var runs [2]float64
		for side := range hs {
			h := &hs[side]
			lo := base + uint64(side)*shift
			nRuns, width := 1+r.Intn(6), 1+r.Intn(48)
			if r.Intn(8) == 0 {
				nRuns, width = 1, 1 // a single cell
			}
			widen := span > 1 && r.Intn(3) == 0
			for run := 0; run < nRuns; run++ {
				from, w := lo, span
				if widen { // each run lower: dense counts widen below their base
					w = max(1, span/4)
					from = lo + uint64(nRuns-1-run)*w
				}
				prevBase, wasDense := h.base, h.dense != nil
				h.Add(randomRun(r, from, w, width))
				if wasDense && h.dense != nil && h.base < prevBase {
					seen["widened"] = true
				}
				if wasDense && h.dense == nil {
					seen["back to cells"] = true
				}
			}
			runs[side] = float64(nRuns)
			cells := h.Cells()
			if len(cells) == 1 {
				seen["single cell"] = true
			}
			for i := 1; i < len(cells); i++ {
				if float64(cells[i-1].Addr) == float64(cells[i].Addr) {
					seen["keys collapse above 2^53"] = true
				}
			}
		}
		a, b := &hs[0], &hs[1]
		switch {
		case a.Dense() && b.Dense():
			seen["dense vs dense"] = true
		case a.Dense() != b.Dense():
			seen["dense vs cells"] = true
		}
		if shift > span {
			seen["disjoint"] = true
		}
		want, err := stats.KSTestEff(histSample(a.Cells()), histSample(b.Cells()), 0.95, runs[0], runs[1])
		if err != nil {
			t.Fatal(err)
		}
		d, n, m := KSDistance(a, b)
		got, err := stats.KSFromD(d, float64(n), float64(m), 0.95, runs[0], runs[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.D) != math.Float64bits(want.D) || math.Float64bits(got.P) != math.Float64bits(want.P) ||
			math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) || got.Reject != want.Reject {
			t.Fatalf("iteration %d: KSDistance %v, reference %v\na %v\nb %v", iter, got, want, a.Cells(), b.Cells())
		}
	}
	for _, c := range []string{"widened", "back to cells", "single cell", "keys collapse above 2^53",
		"dense vs dense", "dense vs cells", "disjoint"} {
		if !seen[c] {
			t.Errorf("case %q never occurred; the test is vacuous for it", c)
		}
	}

	// An empty side has no distribution: the test errs, as the reference does.
	var empty, one EvidenceHist
	one.Add([]Cell{{Addr: 7, Count: 2}})
	d, n, m := KSDistance(&empty, &one)
	if _, err := stats.KSFromD(d, float64(n), float64(m), 0.95, 1, 1); err == nil {
		t.Error("empty histogram accepted")
	}
	if _, err := stats.KSTestEff(histSample(empty.Cells()), histSample(one.Cells()), 0.95, 1, 1); err == nil {
		t.Error("reference accepted an empty histogram")
	}
}
