package adcfg

// EvidenceHist is the address histogram of one memory instruction merged
// over the runs of an evidence regime (§VII-A). Merging a run into cells
// walks every accumulated cell, so a run would cost O(accumulated) even
// when it adds a handful of addresses. A histogram that holds or grows
// past smallHist cells, and whose addresses span fewer than denseSpan
// keys, therefore moves to a count array indexed by key - base: a run
// then costs one indexed add per run cell. Histograms start as cells and
// stay cells through their first run, because most hold a few cells (a
// dense array per small histogram multiplies the evidence heap), and the
// switch frees the cell buffer. A histogram whose counted keys come to
// span denseSpan or more converts back to cells once; that span only
// grows, so it never switches again.
//
// The zero value is an empty histogram. Cells is the only read path, so
// no reader sees the dense counts.
type EvidenceHist struct {
	cells  []Cell  // strictly ascending; nil in the dense state
	dense  []int64 // counts of keys base, base+1, ...; nil in the cell state
	base   uint64
	lo, hi uint64 // the lowest and highest key counted in dense
}

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

// Add merges one run's strictly ascending cells into the histogram. A
// cell histogram of n cells to which the run adds missing addresses
// switches to dense counts straight from its cells and the run when
// 0 < n <= smallHist < n+missing, and before the add when n > smallHist.
func (e *EvidenceHist) Add(o []Cell) {
	if len(o) == 0 {
		return
	}
	n := len(e.cells)
	if e.dense == nil && n > smallHist {
		e.toDense(nil)
	}
	if e.dense != nil {
		if e.cover(o[0].Addr, o[len(o)-1].Addr) {
			for _, c := range o {
				e.dense[c.Addr-e.base] += c.Count
			}
			return
		}
		e.toCells()
		n = len(e.cells)
	}
	missing := addCounts(e.cells, o)
	if missing == 0 || n > 0 && n <= smallHist && n+missing > smallHist && e.toDense(o) {
		return
	}
	insert(&e.cells, o, missing)
}

// Cells returns the histogram's strictly ascending cells. In the cell
// state they are the histogram's own, to be read and not modified; from
// dense counts they are built afresh, sized exactly.
func (e *EvidenceHist) Cells() []Cell {
	if e.dense == nil {
		return e.cells
	}
	n := 0
	for _, c := range e.dense {
		if c != 0 {
			n++
		}
	}
	cells := make([]Cell, 0, n)
	for i, c := range e.dense {
		if c != 0 {
			cells = append(cells, Cell{Addr: e.base + uint64(i), Count: c})
		}
	}
	return cells
}

// toDense switches e from cells to dense counts covering e's cells and
// the strictly ascending cells o, and reports whether it did: it does not
// when the union spans denseSpan keys or more. The counts of o's
// addresses already in e must have been added to e's cells in place;
// toDense adds the others.
func (e *EvidenceHist) toDense(o []Cell) bool {
	lo, hi := e.cells[0].Addr, e.cells[len(e.cells)-1].Addr
	if len(o) > 0 {
		lo, hi = min(lo, o[0].Addr), max(hi, o[len(o)-1].Addr)
	}
	alo, ahi, ok := denseRange(lo, hi)
	if !ok {
		return false
	}
	e.dense, e.base, e.lo, e.hi = make([]int64, ahi-alo+1), alo, lo, hi
	for _, c := range e.cells {
		e.dense[c.Addr-alo] = c.Count
	}
	i := 0
	for _, c := range o {
		i = seek(e.cells, i, c.Addr)
		if i == len(e.cells) || e.cells[i].Addr != c.Addr {
			e.dense[c.Addr-alo] = c.Count
		}
	}
	e.cells = nil
	return true
}

// cover widens e's dense counts so they cover lo..hi, and reports false,
// leaving e unchanged, when the keys counted so far and lo..hi together
// span denseSpan keys or more. The bound applies to those keys, not to the
// block-aligned array around them.
func (e *EvidenceHist) cover(lo, hi uint64) bool {
	lo, hi = min(lo, e.lo), max(hi, e.hi)
	if lo >= e.base && hi < e.base+uint64(len(e.dense)) {
		e.lo, e.hi = lo, hi
		return true
	}
	alo, ahi, ok := denseRange(lo, hi)
	if !ok {
		return false
	}
	d := make([]int64, ahi-alo+1)
	copy(d[e.lo-alo:], e.dense[e.lo-e.base:e.hi-e.base+1])
	e.dense, e.base, e.lo, e.hi = d, alo, lo, hi
	return true
}

// toCells returns a dense histogram to the cell state for good.
func (e *EvidenceHist) toCells() {
	e.cells = e.Cells()
	e.dense, e.base, e.lo, e.hi = nil, 0, 0, 0
}

// Summary returns the run-level features of one run's strictly ascending
// cells: the count-weighted mean address, summed in ascending address
// order and divided by the integer total so it has one bit pattern, and
// the max-min address range. Both are 0 for no cells.
func Summary(cells []Cell) (mean, spread float64) {
	if len(cells) == 0 {
		return 0, 0
	}
	var sum float64
	var total int64
	for _, c := range cells {
		sum += float64(c.Addr) * float64(c.Count)
		total += c.Count
	}
	return sum / float64(total), float64(cells[len(cells)-1].Addr) - float64(cells[0].Addr)
}
