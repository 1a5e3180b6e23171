// Streaming moment and mutual-information accumulators for the statistical
// evidence engine: Welford/Chan mean-variance accumulation (numerically
// stable, O(1) per observation, O(1) merge), Welch's t-test evaluated
// directly from two accumulators (the TVLA |t| > 4.5 methodology), and a
// capped-histogram estimator of the mutual information between the input
// regime (fixed vs. random) and a scalar observation.
package stats

import (
	"math"
	"slices"
)

// Welford is a streaming mean/variance accumulator using Welford's update
// with Chan's parallel merge. The zero value is an empty accumulator.
// Values accumulate in O(1) memory, and two accumulators built from
// disjoint streams merge into exactly the accumulator of the concatenated
// stream (to floating-point accuracy), which is what lets per-site
// statistics ride the trace sink at O(sites) total memory.
type Welford struct {
	Count float64 // observations
	Mean  float64 // running mean
	M2    float64 // sum of squared deviations from the mean
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.Count++
	d := x - w.Mean
	w.Mean += d / w.Count
	w.M2 += d * (x - w.Mean)
}

// AddZeros folds k zero observations in — the O(1) padding primitive for
// per-run feature vectors where a site simply did not occur in some runs
// (the streamed equivalent of the diff pipeline's pad-with-zeros).
func (w *Welford) AddZeros(k int) {
	if k <= 0 {
		return
	}
	w.Merge(Welford{Count: float64(k)})
}

// Merge folds another accumulator in (Chan et al.'s parallel update).
func (w *Welford) Merge(o Welford) {
	if o.Count == 0 {
		return
	}
	if w.Count == 0 {
		*w = o
		return
	}
	n := w.Count + o.Count
	d := o.Mean - w.Mean
	w.Mean += d * o.Count / n
	w.M2 += o.M2 + d*d*w.Count*o.Count/n
	w.Count = n
}

// Variance returns the sample variance (N-1 denominator).
func (w Welford) Variance() float64 {
	if w.Count <= 1 {
		return 0
	}
	return w.M2 / (w.Count - 1)
}

// WelchTWelford runs Welch's t-test directly over two Welford
// accumulators, rejecting at |t| > threshold (TVLA uses 4.5). Degenerate
// cases mirror WelchT: two zero-variance samples reject only when their
// means differ.
func WelchTWelford(x, y Welford, threshold float64) (TResult, error) {
	if x.Count < 2 || y.Count < 2 {
		return TResult{}, errSmallSample(x.Count, y.Count)
	}
	vx, vy := x.Variance(), y.Variance()
	n, m := x.Count, y.Count
	se2 := vx/n + vy/m
	if se2 == 0 {
		if x.Mean == y.Mean {
			return TResult{T: 0, DF: n + m - 2, Reject: false}, nil
		}
		return TResult{T: math.Inf(1), DF: n + m - 2, Reject: true}, nil
	}
	t := (x.Mean - y.Mean) / math.Sqrt(se2)
	df := se2 * se2 / ((vx*vx)/(n*n*(n-1)) + (vy*vy)/(m*m*(m-1)))
	return TResult{T: t, DF: df, Reject: math.Abs(t) > threshold}, nil
}

// TConfidence maps a t statistic to an approximate two-sided confidence
// 1-p under the normal approximation of the t distribution — adequate at
// the run counts the pipeline uses (TVLA thresholds are themselves chosen
// against the normal tail). Returns a value in [0, 1]; |t| = +Inf maps
// to 1.
func TConfidence(t float64) float64 {
	if math.IsInf(t, 0) {
		return 1
	}
	return 1 - math.Erfc(math.Abs(t)/math.Sqrt2)
}

// MIEstimator estimates the mutual information, in bits, between a binary
// class label (e.g. fixed vs. random input regime) and a scalar
// observation, from streamed weighted observations. Observations bucket
// into a value histogram capped at maxBins distinct cells: while the
// stream stays under the cap every distinct value keeps its own cell
// (exact discrete MI); past the cap the histogram folds into equal-width
// bins over the observed range and later values quantize into that grid.
// Weights are expected to be integral (access counts), which keeps
// accumulation order-independent and therefore deterministic across
// worker counts.
//
// The exact cells are kept in ascending value order, so no value is
// hashed: each observation gallops forward from the previous
// observation's cell when the value lies past it, which makes an
// ascending stream (an address histogram's cells) a merge-join.
type MIEstimator struct {
	maxBins int
	exact   []miCell // ascending by value, while under cap
	at      int      // the exact cell of the previous observation
	classN  [2]float64

	binned   bool
	lo, step float64
	bins     [][2]float64
}

// miCell is one exact value with its per-class weight.
type miCell struct {
	value float64
	w     [2]float64
}

// NewMIEstimator builds an estimator with the given histogram cap
// (<= 0 selects 64 cells).
func NewMIEstimator(maxBins int) *MIEstimator {
	if maxBins <= 0 {
		maxBins = 64
	}
	return &MIEstimator{maxBins: maxBins}
}

// Weighted is Weight observations of Value.
type Weighted struct {
	Value, Weight float64
}

// Observe folds weight observations of value under class (0 or 1) in:
// the one-cell case of ObserveRun.
func (m *MIEstimator) Observe(class int, value, weight float64) {
	m.ObserveRun(class, []Weighted{{value, weight}})
}

// ObserveRun folds one run's cells in under class, values ascending: an
// address histogram's cells. With integral weights, as the estimator
// expects, it leaves the estimator as one Observe per cell in order
// would. Cells whose value has an exact cell add to it in
// place, up to the first that has none. The rest fold in one merge walk
// while the exact cells stay under the cap: the gallop counts the values
// that have no cell, the cells grow once, and the rest merge in from the
// back. When their new values would pass the cap, they fold cell by cell
// instead, so the histogram rebins at the same cell as under Observe.
func (m *MIEstimator) ObserveRun(class int, cells []Weighted) {
	if m.binned {
		for _, c := range cells {
			m.observe(class, c.Value, c.Weight)
		}
		return
	}
	// The first cells, while each value has its cell.
	at := 0
	for len(cells) > 0 {
		c := cells[0]
		if c.Weight <= 0 {
			cells = cells[1:]
			continue
		}
		from := 0
		if m.at < len(m.exact) && m.exact[m.at].value <= c.Value {
			from = m.at
		}
		at = seekValue(m.exact, from, c.Value)
		if at == len(m.exact) || m.exact[at].value != c.Value {
			break
		}
		m.classN[class] += c.Weight
		m.exact[at].w[class] += c.Weight
		m.at = at
		cells = cells[1:]
	}
	if len(cells) == 0 {
		return
	}
	// The rest, from the first value without a cell.
	missing, prev := 0, math.NaN()
	for _, c := range cells {
		if c.Weight <= 0 || c.Value == prev {
			continue
		}
		prev = c.Value
		at = seekValue(m.exact, at, c.Value)
		if at == len(m.exact) || m.exact[at].value != c.Value {
			missing++
		}
	}
	if len(m.exact)+missing > m.maxBins {
		m.reserve(m.maxBins)
		for _, c := range cells {
			m.observe(class, c.Value, c.Weight)
		}
		return
	}
	m.reserve(len(m.exact) + missing)
	e := m.exact[:len(m.exact)+missing]
	m.exact = e
	// i walks the old cells and k the merged ones from the back; k-i is
	// the number of new values still to place.
	i, k := len(e)-missing-1, len(e)-1
	placed := false
	for j := len(cells) - 1; j >= 0; j-- {
		c := cells[j]
		if c.Weight <= 0 {
			continue
		}
		m.classN[class] += c.Weight
		if placed && e[k+1].value == c.Value {
			e[k+1].w[class] += c.Weight
			continue
		}
		for i >= 0 && e[i].value > c.Value {
			e[k] = e[i]
			i, k = i-1, k-1
		}
		if i >= 0 && e[i].value == c.Value {
			e[k] = e[i]
			i--
		} else {
			e[k] = miCell{value: c.Value}
		}
		e[k].w[class] += c.Weight
		if !placed {
			m.at = k
		}
		placed = true
		k--
	}
}

// reserve makes room for n exact cells. It grows the cells by doubling,
// as append does, but never past the cap, where they rebin instead.
func (m *MIEstimator) reserve(n int) {
	if n > cap(m.exact) {
		grown := make([]miCell, len(m.exact), min(max(n, 2*len(m.exact)), m.maxBins))
		copy(grown, m.exact)
		m.exact = grown
	}
}

// observe folds weight observations of value under class in, one cell at
// a time: the path of a run that passes the cap.
func (m *MIEstimator) observe(class int, value, weight float64) {
	if weight <= 0 {
		return
	}
	m.classN[class] += weight
	if !m.binned {
		from := 0
		if m.at < len(m.exact) && m.exact[m.at].value <= value {
			from = m.at
		}
		i := seekValue(m.exact, from, value)
		switch {
		case i < len(m.exact) && m.exact[i].value == value:
			m.exact[i].w[class] += weight
			m.at = i
			return
		case len(m.exact) < m.maxBins:
			m.exact = slices.Insert(m.exact, i, miCell{value: value})
			m.exact[i].w[class] = weight
			m.at = i
			return
		}
		m.rebin()
	}
	m.bins[m.binIdx(value)][class] += weight
}

// seekValue returns the index of the first cell at or after from whose
// value is at least v: it gallops forward from from, then binary-searches
// the bracket, so a value a few cells on costs a few steps.
func seekValue(c []miCell, from int, v float64) int {
	lo, hi := from, from
	for step := 1; hi < len(c) && c[hi].value < v; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	hi = min(hi, len(c))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].value < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rebin folds the exact histogram into maxBins equal-width cells over the
// observed range.
func (m *MIEstimator) rebin() {
	lo, hi := m.exact[0].value, m.exact[len(m.exact)-1].value
	m.lo = lo
	m.step = (hi - lo) / float64(m.maxBins)
	if m.step == 0 {
		m.step = 1
	}
	m.bins = make([][2]float64, m.maxBins)
	for _, c := range m.exact {
		b := &m.bins[m.binIdx(c.value)]
		b[0] += c.w[0]
		b[1] += c.w[1]
	}
	m.exact = nil
	m.binned = true
}

// binIdx quantizes a value into the folded grid, clamping outliers into
// the edge cells.
func (m *MIEstimator) binIdx(v float64) int {
	i := int((v - m.lo) / m.step)
	if i < 0 {
		return 0
	}
	if i >= m.maxBins {
		return m.maxBins - 1
	}
	return i
}

// Bits returns the estimated mutual information I(class; value) in bits,
// in [0, 1] for a binary class.
func (m *MIEstimator) Bits() float64 {
	total := m.classN[0] + m.classN[1]
	if total == 0 || m.classN[0] == 0 || m.classN[1] == 0 {
		return 0
	}
	var mi float64
	cell := func(c [2]float64) {
		v := c[0] + c[1]
		if v == 0 {
			return
		}
		pv := v / total
		for class := 0; class < 2; class++ {
			if c[class] == 0 {
				continue
			}
			pvc := c[class] / total
			pc := m.classN[class] / total
			mi += pvc * math.Log2(pvc/(pv*pc))
		}
	}
	if m.binned {
		for _, c := range m.bins {
			cell(c)
		}
	} else {
		// Sum in value order: any other order would make the float sum, and
		// so identical detections' MI, differ in the last bit.
		for _, c := range m.exact {
			cell(c.w)
		}
	}
	if mi < 0 {
		mi = 0 // clamp float noise
	}
	return mi
}

// errSmallSample is the shared too-few-observations error of the t-test
// entry points.
func errSmallSample(n, m float64) error {
	return smallSampleError{n: n, m: m}
}

type smallSampleError struct{ n, m float64 }

func (e smallSampleError) Error() string {
	return "stats: Welch t-test requires n,m >= 2 (n=" + ftoa(e.n) + ", m=" + ftoa(e.m) + ")"
}

func ftoa(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		// integral counts render without exponent noise
		n := int64(f)
		if n == 0 {
			return "0"
		}
		neg := n < 0
		if neg {
			n = -n
		}
		var buf [24]byte
		i := len(buf)
		for n > 0 {
			i--
			buf[i] = byte('0' + n%10)
			n /= 10
		}
		if neg {
			i--
			buf[i] = '-'
		}
		return string(buf[i:])
	}
	return "~"
}
