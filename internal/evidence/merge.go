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
func Merge(r Regime, t *trace.ProgramTrace, d *Diff, e *Engine) {
	var dInvs []*InvEvidence
	var eInvs []*invAcc
	if d != nil {
		dInvs = d.align(t)
	}
	if e != nil {
		eInvs = e.align(t)
	}
	for i, ti := range t.Invocations {
		var di *InvEvidence
		var ea *invAcc
		if d != nil {
			di = dInvs[i]
			di.Presence = append(pad(di.Presence, d.Runs), 1)
		}
		if e != nil {
			ea = eInvs[i]
			ea.present[r]++
			ea.observeCosts(r, e.runs[r], ti.Cost, e.cfg.MIBins)
		}
		mergeGraph(ti.Graph, di, d, ea, e, r)
	}
	if d != nil {
		d.endRun()
	}
	if e != nil {
		e.runs[r]++
	}
}

// mergeGraph is the walk of one invocation's graph g: it merges g into
// the diff record di of d and the engine accumulators ea of e, those of
// the consumers that are on.
func mergeGraph(g *adcfg.Graph, di *InvEvidence, d *Diff, ea *invAcc, e *Engine, r Regime) {
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
				*xs = append(pad(*xs, d.Runs), float64(c))
			}
			if eb != nil {
				w := &eb.pair(pk).w[r]
				w.AddZeros(e.runs[r] - int(w.Count))
				w.Add(float64(c))
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
					f.Hist.Add(h.Cells)
					f.Means, f.Spreads = append(f.Means, mean), append(f.Spreads, spread)
				}
				if eb != nil {
					m := eb.mem(j, mi)
					if m.mi == nil {
						m.mi = stats.NewMIEstimator(e.cfg.MIBins)
					}
					// Ascending cells make the rebin, and so the MI, deterministic.
					for _, c := range h.Cells {
						m.mi.Observe(int(r), float64(c.Addr), float64(c.Count))
					}
					m.mean[r].Add(mean)
					m.spread[r].Add(spread)
				}
			}
		}
	}
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
