package adcfg

// Dense evidence histograms. Merging a run into an evidence histogram of
// cells walks every accumulated cell, so a run costs O(accumulated) even
// when it adds a handful of addresses. The evidence merge (MergeSummaries,
// and only it) therefore moves a histogram that holds or grows past
// smallHist cells, and whose addresses span fewer than denseSpan keys, to
// a count array indexed by key - base: a run then costs one indexed add
// per run cell. Histograms start as cells and stay cells through their
// first run, because most hold a few cells (a dense array per small
// histogram multiplies the evidence heap), and the switch frees the cell
// buffer.
//
// The dense counts are the histogram: Cells go stale with the first dense
// add and are rebuilt, sized exactly, by Settle. Once dense, every merge
// or fold into the histogram adds into the counts. A histogram whose
// counted keys come to span denseSpan or more converts back to cells once;
// that span only grows, so it never switches again.

// denseSpan bounds the key span of a dense histogram.
const denseSpan = 4096

// denseAlign is the key alignment of a dense histogram's bounds. Run by
// run, new keys land just past a histogram's edges; whole blocks of keys
// let most of them land inside instead of reallocating the counts.
const denseAlign = 64

// denseRange returns the keys a dense histogram covering lo..hi holds:
// lo..hi widened to whole denseAlign blocks, or exactly lo..hi where
// that would reach the bound. It reports false when lo..hi itself spans
// denseSpan keys or more.
func denseRange(lo, hi uint64) (uint64, uint64, bool) {
	if hi-lo >= denseSpan {
		return 0, 0, false
	}
	if alo, ahi := lo&^(denseAlign-1), hi|(denseAlign-1); ahi-alo < denseSpan {
		return alo, ahi, true
	}
	return lo, hi, true
}

// Settle brings Cells up to date with a dense histogram's counts. It is a
// no-op for a histogram in the cell state and for one settled since its
// last merge, so concurrent readers of a settled graph do not race.
func (h *MemHist) Settle() {
	if !h.stale {
		return
	}
	n := 0
	for _, c := range h.dense {
		if c != 0 {
			n++
		}
	}
	cells := h.Cells[:0]
	if cap(cells) < n {
		cells = make([]Cell, 0, n)
	}
	for i, c := range h.dense {
		if c != 0 {
			cells = append(cells, Cell{Addr: h.base + uint64(i), Count: c})
		}
	}
	h.Cells, h.stale = cells, false
}

// toDense switches h from cells to dense counts covering h's cells and
// the strictly ascending cells o, and reports whether it did: it does not
// when the union spans denseSpan keys or more. The counts of o's
// addresses already in h must have been added to h's cells in place;
// toDense adds the others.
func (h *MemHist) toDense(o []Cell) bool {
	lo, hi := h.Cells[0].Addr, h.Cells[len(h.Cells)-1].Addr
	if len(o) > 0 {
		lo, hi = min(lo, o[0].Addr), max(hi, o[len(o)-1].Addr)
	}
	alo, ahi, ok := denseRange(lo, hi)
	if !ok {
		return false
	}
	h.dense, h.base, h.lo, h.hi = make([]int64, ahi-alo+1), alo, lo, hi
	for _, c := range h.Cells {
		h.dense[c.Addr-alo] = c.Count
	}
	i := 0
	for _, c := range o {
		i = seek(h.Cells, i, c.Addr)
		if i == len(h.Cells) || h.Cells[i].Addr != c.Addr {
			h.dense[c.Addr-alo] = c.Count
		}
	}
	h.Cells, h.stale = nil, true
	return true
}

// cover widens h's dense counts so they cover lo..hi, and reports false,
// leaving h unchanged, when the keys counted so far and lo..hi together
// span denseSpan keys or more. The bound applies to those keys, not to the
// block-aligned array around them.
func (h *MemHist) cover(lo, hi uint64) bool {
	lo, hi = min(lo, h.lo), max(hi, h.hi)
	if lo >= h.base && hi < h.base+uint64(len(h.dense)) {
		h.lo, h.hi = lo, hi
		return true
	}
	alo, ahi, ok := denseRange(lo, hi)
	if !ok {
		return false
	}
	d := make([]int64, ahi-alo+1)
	copy(d[h.lo-alo:], h.dense[h.lo-h.base:h.hi-h.base+1])
	h.dense, h.base, h.lo, h.hi = d, alo, lo, hi
	return true
}

// addDense adds the strictly ascending cells o, which h's dense counts
// cover, and returns their count-weighted mean address.
func (h *MemHist) addDense(o []Cell) float64 {
	var sum float64
	var total int64
	for _, c := range o {
		h.dense[c.Addr-h.base] += c.Count
		sum += float64(c.Addr) * float64(c.Count)
		total += c.Count
	}
	h.stale = true
	return sum / float64(total)
}

// toCells returns a dense histogram to the cell state for good.
func (h *MemHist) toCells() {
	h.Settle()
	h.dense, h.base, h.lo, h.hi = nil, 0, 0, 0
}
