package evidence

import (
	"slices"

	"owl/internal/adcfg"
	"owl/internal/stats"
	"owl/internal/trace"
)

// Merge folds one run, recorded under regime r, into the evidence
// consumers that are on: d, the diff channel's evidence of the run's
// regime, and e, the statistical engine. Either may be nil. Each consumer
// aligns the run's invocations its own way, d by the Myers diff against
// its merged sequence and e by (stack identity, occurrence), and one walk
// over each invocation's nodes, visits and histograms feeds the records
// of both alignments: every site is found by index, and every histogram
// is summarized once. The trace is read, never retained.
func Merge(r Regime, t *trace.ProgramTrace, d *Diff, e *Engine) { MergeN(r, t, d, e, 1) }

// MergeN folds k runs that each recorded t, as k calls of Merge would,
// bit for bit, but aligns once and walks t once. What a run adds once
// per cell is added once, scaled by k: the merged address histograms
// take k times each count, and the MI estimators k times each weight.
// Weights are integers below 2^53, so these sums are exact and do not
// depend on their order. What a run adds as a sample is added k times:
// the per-run samples are appended k times, and each Welford accumulator
// takes its k updates in sequence, as there is no closed form for them.
//
// The engine's alignment of a trace does not depend on what was merged
// before. The diff channel's does: when t's invocations insert new ones
// into a non-empty merged sequence, the next copy may align differently,
// so the first copy merges alone. After it the merged sequence holds t's
// as a subsequence, every later copy aligns by matches only, the merged
// sequence no longer changes, and the rest merge in one walk.
func MergeN(r Regime, t *trace.ProgramTrace, d *Diff, e *Engine, k int) {
	for k > 0 {
		n := k
		var dInvs []*InvEvidence
		var eInvs []*invAcc
		if d != nil {
			had := len(d.Invs)
			var grew bool
			dInvs, grew = d.align(t)
			if grew && had > 0 {
				n = 1
			}
		}
		if e != nil {
			eInvs = e.align(t)
		}
		for i, ti := range t.Invocations {
			var di *InvEvidence
			var ea *invAcc
			if d != nil {
				di = dInvs[i]
				di.Presence = appendN(pad(di.Presence, d.Runs), 1, n)
			}
			if e != nil {
				ea = eInvs[i]
				ea.present[r] += n
				ea.observeCosts(r, e.runs[r], n, ti.Cost, e.cfg.MIBins)
			}
			mergeGraph(ti.Graph, di, d, ea, e, r, n)
		}
		if d != nil {
			d.endRuns(n)
		}
		if e != nil {
			e.runs[r] += n
		}
		k -= n
	}
}

// mergeGraph is the walk of one invocation's graph g, recorded by n runs:
// it merges g into the diff record di of d and the engine accumulators
// ea of e, those of the consumers that are on.
func mergeGraph(g *adcfg.Graph, di *InvEvidence, d *Diff, ea *invAcc, e *Engine, r Regime, n int) {
	for block, node := range g.Nodes {
		var db *BlockSites[[]float64, *MemFeature]
		var eb *BlockSites[pairAcc, memAcc]
		if di != nil {
			db = di.Sites.grow(block)
		}
		if ea != nil {
			eb = ea.sites.grow(block)
		}
		for pk, c := range node.Pairs {
			if db != nil {
				xs := db.pair(pk)
				*xs = appendN(pad(*xs, d.Runs), float64(c), n)
			}
			if eb != nil {
				addRuns(&eb.pair(pk).w[r], e.runs[r], n, float64(c))
			}
		}
		for j, v := range node.Visits {
			for mi, h := range v.Mems {
				if h == nil {
					continue
				}
				var f *MemFeature
				if db != nil {
					p := db.mem(j, mi)
					if *p == nil {
						*p = &MemFeature{Space: h.Space, Store: h.Store}
					}
					f = *p
				}
				if len(h.Cells) == 0 {
					continue
				}
				mean, spread := adcfg.Summary(h.Cells)
				if f != nil {
					f.Hist.Add(d.scale(h.Cells, n))
					f.Means, f.Spreads = appendN(f.Means, mean, n), appendN(f.Spreads, spread, n)
				}
				if eb != nil {
					m := eb.mem(j, mi)
					if m.mi == nil {
						m.mi = stats.NewMIEstimator(e.cfg.MIBins)
					}
					// Ascending cells make the rebin, and so the MI, deterministic.
					for _, c := range h.Cells {
						m.mi.Observe(int(r), float64(c.Addr), float64(c.Count)*float64(n))
					}
					for range n {
						m.mean[r].Add(mean)
						m.spread[r].Add(spread)
					}
				}
			}
		}
	}
}

// addRuns folds x into w as the observation of n consecutive runs, the
// first of which is the run-th of its regime, each padded as Merge pads
// it: runs before it in which the site was absent count as zeros.
func addRuns(w *stats.Welford, run, n int, x float64) {
	for i := range n {
		w.AddZeros(run + i - int(w.Count))
		w.Add(x)
	}
}

// appendN appends n copies of x to xs.
func appendN(xs []float64, x float64, n int) []float64 {
	for range n {
		xs = append(xs, x)
	}
	return xs
}

// Sites indexes one aligned invocation's per-site records of one channel
// by block ID and then by position in the run graph, so a run's walk
// finds each site without hashing and a reader walks them in order: pair
// sites by (Src, Dst), memory sites by visit and memory instruction —
// the MemKey order. P is a pair site's record, M a memory site's; a
// memory site no run reached holds the zero M.
type Sites[P, M any] []BlockSites[P, M]

// BlockSites holds the sites of one block.
type BlockSites[P, M any] struct {
	// Pairs holds the block's (entered-from, left-towards) pairs in
	// ascending (Src, Dst) order.
	Pairs []PairRecord[P]
	// Mems[visit][mem] is the record of the mem-th memory instruction
	// during the visit-th visit of the block.
	Mems [][]M
}

// PairRecord is one pair of a block with its record.
type PairRecord[P any] struct {
	Pair adcfg.PairKey
	Rec  P
}

// Block returns the sites of block b, empty when b has none.
func (s Sites[P, M]) Block(b int) BlockSites[P, M] {
	if b < 0 || b >= len(s) {
		return BlockSites[P, M]{}
	}
	return s[b]
}

// Mem returns the record of the memory site k, or the zero M.
func (s Sites[P, M]) Mem(k MemKey) M {
	var zero M
	mems := s.Block(k.Block).Mems
	if k.Visit < 0 || k.Visit >= len(mems) || k.Mem < 0 || k.Mem >= len(mems[k.Visit]) {
		return zero
	}
	return mems[k.Visit][k.Mem]
}

// grow returns the sites of block b, extending the index to hold it.
func (s *Sites[P, M]) grow(b int) *BlockSites[P, M] {
	if b >= len(*s) {
		*s = append(*s, make([]BlockSites[P, M], b+1-len(*s))...)
	}
	return &(*s)[b]
}

// pair returns the record of pair k, inserting a zero one in order when
// the block has none.
func (b *BlockSites[P, M]) pair(k adcfg.PairKey) *P {
	i, ok := slices.BinarySearchFunc(b.Pairs, k, func(p PairRecord[P], k adcfg.PairKey) int { return p.Pair.Compare(k) })
	if !ok {
		b.Pairs = slices.Insert(b.Pairs, i, PairRecord[P]{Pair: k})
	}
	return &b.Pairs[i].Rec
}

// mem returns the record of the mem-th memory instruction of the
// visit-th visit, extending the index to hold it.
func (b *BlockSites[P, M]) mem(visit, mem int) *M {
	if visit >= len(b.Mems) {
		b.Mems = append(b.Mems, make([][]M, visit+1-len(b.Mems))...)
	}
	v := b.Mems[visit]
	if mem >= len(v) {
		v = append(v, make([]M, mem+1-len(v))...)
		b.Mems[visit] = v
	}
	return &v[mem]
}
