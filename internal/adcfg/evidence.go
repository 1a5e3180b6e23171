package adcfg

import "math"

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
// The zero value is an empty histogram. It is read through Cells, or in
// place by KSDistance; no other reader sees the dense counts.
type EvidenceHist struct {
	cells  []Cell  // strictly ascending; nil in the dense state
	dense  []int64 // counts of keys base, base+1, ...; nil in the cell state
	base   uint64
	lo, hi uint64 // the lowest and highest key counted in dense
}

// smallHist is the most cells an evidence histogram holds before it may
// switch to dense counts.
const smallHist = 32

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

// KSDistance returns the two-sample Kolmogorov-Smirnov statistic D
// (Eq. 2) between the count-weighted key distributions of a and b, and
// their total counts n and m. It is one ascending merge walk that reads
// each histogram in place, in either state, and allocates nothing;
// stats.KSFromD completes the test. The ECDF steps are taken over keys
// as float64, in ascending order, each by its count over the total, as
// stats.KSTestEff steps over a weighted sample of the cells: keys below
// 2^53 are exact, and distinct keys above it that round to one float64
// step as one, by their summed count, as that sample merges them. D is
// then bit-identical to stats.KSTestEff's over the same cells.
func KSDistance(a, b *EvidenceHist) (d float64, n, m int64) {
	x, n := a.steps()
	y, m := b.steps()
	nf, mf := float64(n), float64(m)
	var fx, fy float64
	vx, cx := x.next()
	vy, cy := y.next()
	for cx > 0 || cy > 0 {
		switch {
		case cy == 0 || cx > 0 && vx < vy:
			fx += float64(cx) / nf
			vx, cx = x.next()
		case cx == 0 || vy < vx:
			fy += float64(cy) / mf
			vy, cy = y.next()
		default:
			fx += float64(cx) / nf
			fy += float64(cy) / mf
			vx, cx = x.next()
			vy, cy = y.next()
		}
		if diff := math.Abs(fx - fy); diff > d {
			d = diff
		}
	}
	return d, n, m
}

// histSteps reads a histogram's counted keys in ascending order, in
// place: its cells, or its dense counts from the lowest counted key to
// the highest, skipping keys never counted.
type histSteps struct {
	cells []Cell  // cell state
	dense []int64 // dense state: the counts of keys base, base+1, ...
	base  uint64
	i     int // the next cell or count to read
}

// steps returns a reader of the histogram's steps and its total count.
func (e *EvidenceHist) steps() (histSteps, int64) {
	var t int64
	if e.dense != nil {
		counts := e.dense[e.lo-e.base : e.hi-e.base+1]
		for _, c := range counts {
			t += c
		}
		return histSteps{dense: counts, base: e.lo}, t
	}
	for _, c := range e.cells {
		t += c.Count
	}
	return histSteps{cells: e.cells}, t
}

// next returns the next step of the ECDF: the next key as float64, and
// the summed count of the keys that equal it as float64; a count of 0
// when every key has been read.
func (s *histSteps) next() (float64, int64) {
	var v float64
	var c int64
	if s.dense != nil {
		if s.i == len(s.dense) {
			return 0, 0
		}
		v = float64(s.base + uint64(s.i))
		for s.i < len(s.dense) && float64(s.base+uint64(s.i)) == v {
			c += s.dense[s.i]
			s.i++
		}
		for s.i < len(s.dense) && s.dense[s.i] == 0 {
			s.i++
		}
		return v, c
	}
	if s.i == len(s.cells) {
		return 0, 0
	}
	v = float64(s.cells[s.i].Addr)
	for s.i < len(s.cells) && float64(s.cells[s.i].Addr) == v {
		c += s.cells[s.i].Count
		s.i++
	}
	return v, c
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
