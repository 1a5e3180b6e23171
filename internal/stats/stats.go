// Package stats provides the distribution tests of §VII-B: the two-sample
// Kolmogorov-Smirnov test (Eq. 1-4), over plain or weighted samples, plus
// Welch's t-test as the comparison point the paper cites from prior
// leakage-assessment work (TVLA).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample is a weighted empirical sample: values with positive weights.
// A plain sample uses weight 1 per observation. Histograms (e.g. Owl's
// H_addr address histograms) map directly: value = offset, weight = count.
type Sample struct {
	values  []float64
	weights []float64
	total   float64
}

// NewSample builds a sample from unweighted observations.
func NewSample(values []float64) *Sample {
	s := NewWeightedSample(len(values))
	for _, v := range values {
		s.Add(v, 1)
	}
	return s
}

// NewWeightedSample returns an empty sample with room for n observations.
func NewWeightedSample(n int) *Sample {
	return &Sample{values: make([]float64, 0, n), weights: make([]float64, 0, n)}
}

// Add inserts an observation with the given weight. Non-positive weights
// are ignored.
func (s *Sample) Add(value, weight float64) {
	if weight <= 0 {
		return
	}
	s.values = append(s.values, value)
	s.weights = append(s.weights, weight)
	s.total += weight
}

// N returns the total weight (the n and m of Eq. 3-4).
func (s *Sample) N() float64 { return s.total }

// Len returns the number of distinct stored observations.
func (s *Sample) Len() int { return len(s.values) }

// sorted returns values/weights sorted by value with duplicates merged.
// Strictly ascending input — a histogram added in address order — is
// returned as is.
func (s *Sample) sorted() ([]float64, []float64) {
	ascending := true
	for i := 1; i < len(s.values) && ascending; i++ {
		ascending = s.values[i-1] < s.values[i]
	}
	if ascending {
		return s.values, s.weights
	}
	idx := make([]int, len(s.values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return s.values[idx[i]] < s.values[idx[j]] })
	var vs, ws []float64
	for _, i := range idx {
		v, w := s.values[i], s.weights[i]
		if len(vs) > 0 && vs[len(vs)-1] == v {
			ws[len(ws)-1] += w
			continue
		}
		vs = append(vs, v)
		ws = append(ws, w)
	}
	return vs, ws
}

// Mean returns the weighted mean.
func (s *Sample) Mean() float64 {
	if s.total == 0 {
		return 0
	}
	var sum float64
	for i, v := range s.values {
		sum += v * s.weights[i]
	}
	return sum / s.total
}

// Variance returns the weighted sample variance (denominator N-1 style via
// effective counts; adequate for the t-test comparator).
func (s *Sample) Variance() float64 {
	if s.total <= 1 {
		return 0
	}
	mu := s.Mean()
	var ss float64
	for i, v := range s.values {
		d := v - mu
		ss += s.weights[i] * d * d
	}
	return ss / (s.total - 1)
}

// KSResult is the outcome of a two-sample KS test.
type KSResult struct {
	D         float64 // sup |F_X - F_Y| (Eq. 2)
	Threshold float64 // D_{n,m} at the configured confidence (Eq. 3)
	P         float64 // p-value (Eq. 4)
	N, M      float64
	Reject    bool // null hypothesis (same distribution) rejected
}

// String renders the result.
func (r KSResult) String() string {
	return fmt.Sprintf("KS(D=%.4f, D_nm=%.4f, p=%.4g, reject=%v)", r.D, r.Threshold, r.P, r.Reject)
}

// KSTest runs the two-sample Kolmogorov-Smirnov test at confidence alpha
// (e.g. 0.95). Following §VII-B, the null hypothesis — X and Y share a
// distribution — is rejected when p < (1 - alpha), equivalently when D
// exceeds D_{n,m}.
func KSTest(x, y *Sample, alpha float64) (KSResult, error) {
	return KSTestEff(x, y, alpha, x.N(), y.N())
}

// KSTestEff is KSTest with explicit effective sample sizes for the
// significance computation (Eq. 3-4). Owl uses it when a sample pools
// correlated observations — the accesses of one instruction within a
// single execution move together, so the run count, not the raw access
// count, carries the statistical weight.
//
// KSTestEff and KSTest are the reference the ordered walks are tested
// against: KSTestSorted over per-run samples and, through KSFromD, the
// evidence histograms' merge walk (adcfg.KSDistance).
func KSTestEff(x, y *Sample, alpha, nEff, mEff float64) (KSResult, error) {
	xv, xw := x.sorted()
	yv, yw := y.sorted()
	n, m := x.N(), y.N()

	var d float64
	var fx, fy float64
	i, j := 0, 0
	for i < len(xv) || j < len(yv) {
		var v float64
		switch {
		case i >= len(xv):
			v = yv[j]
		case j >= len(yv):
			v = xv[i]
		default:
			v = math.Min(xv[i], yv[j])
		}
		for i < len(xv) && xv[i] == v {
			fx += xw[i] / n
			i++
		}
		for j < len(yv) && yv[j] == v {
			fy += yw[j] / m
			j++
		}
		if diff := math.Abs(fx - fy); diff > d {
			d = diff
		}
	}
	return KSFromD(d, n, m, alpha, nEff, mEff)
}

// KSFromD completes a two-sample KS test from its statistic d (Eq. 2),
// computed over samples of total weights n and m: the threshold D_{n,m}
// (Eq. 3) and the p-value (Eq. 4) at the effective sizes nEff and mEff,
// and the verdict at confidence alpha. It is the one place Eq. 3-4 are
// evaluated, whichever walk computed d. An empty sample, a non-positive
// effective size or an alpha outside (0,1) is an error.
func KSFromD(d, n, m, alpha, nEff, mEff float64) (KSResult, error) {
	if n == 0 || m == 0 {
		return KSResult{}, fmt.Errorf("stats: KS test requires non-empty samples (n=%v, m=%v)", n, m)
	}
	if nEff <= 0 || mEff <= 0 {
		return KSResult{}, fmt.Errorf("stats: effective sizes must be positive (n=%v, m=%v)", nEff, mEff)
	}
	if alpha <= 0 || alpha >= 1 {
		return KSResult{}, fmt.Errorf("stats: confidence alpha %v outside (0,1)", alpha)
	}
	ne := nEff * mEff / (nEff + mEff)
	p := 2 * math.Exp(-2*d*d*ne)
	if p > 1 {
		p = 1
	}
	return KSResult{
		D:         d,
		Threshold: KSThreshold(alpha, nEff, mEff),
		P:         p,
		N:         nEff,
		M:         mEff,
		Reject:    p < (1 - alpha),
	}, nil
}

// KSTestSorted is KSTest over two plain samples read in order: x and y
// ascending, each sample also holding xZeros (yZeros) observations of 0
// that are counted rather than stored. It allocates nothing. A run of
// equal values steps the ECDF once, by its count over n, as Sample.sorted
// merges duplicate weights, so D and the p-value are bit-identical to
// KSTest over NewSample of the same observations in any order.
func KSTestSorted(x []float64, xZeros int, y []float64, yZeros int, alpha float64) (KSResult, error) {
	xs, ys := sortedSteps{x, xZeros}, sortedSteps{y, yZeros}
	n, m := float64(len(x)+xZeros), float64(len(y)+yZeros)
	var d, fx, fy float64
	vx, cx := xs.next()
	vy, cy := ys.next()
	for cx > 0 || cy > 0 {
		switch {
		case cy == 0 || cx > 0 && vx < vy:
			fx += float64(cx) / n
			vx, cx = xs.next()
		case cx == 0 || vy < vx:
			fy += float64(cy) / m
			vy, cy = ys.next()
		default:
			fx += float64(cx) / n
			fy += float64(cy) / m
			vx, cx = xs.next()
			vy, cy = ys.next()
		}
		if diff := math.Abs(fx - fy); diff > d {
			d = diff
		}
	}
	return KSFromD(d, n, m, alpha, n, m)
}

// sortedSteps reads a plain sample, ascending values plus zeros counted
// apart, as the steps of its ECDF.
type sortedSteps struct {
	xs    []float64 // the values not yet read, ascending
	zeros int       // the zero observations not yet read
}

// next returns the smallest value not yet read and the count of the
// observations equal to it, and reads them; a count of 0 when every
// observation has been read.
func (s *sortedSteps) next() (float64, int) {
	var v float64
	switch {
	case s.zeros > 0 && (len(s.xs) == 0 || s.xs[0] >= 0):
		v = 0
	case len(s.xs) > 0:
		v = s.xs[0]
	default:
		return 0, 0
	}
	c := 0
	if v == 0 {
		c, s.zeros = s.zeros, 0
	}
	i := 0
	for i < len(s.xs) && s.xs[i] == v {
		i++
	}
	s.xs = s.xs[i:]
	return v, c + i
}

// TResult is the outcome of a Welch's t-test.
type TResult struct {
	T      float64
	DF     float64
	Reject bool
}

// WelchT runs Welch's t-test with the |t| > 4.5 rejection rule customary
// in leakage assessment (TVLA). The paper argues KS is preferable because
// trace features are not normally distributed; the ablation bench compares
// the two.
func WelchT(x, y *Sample) (TResult, error) {
	if x.N() < 2 || y.N() < 2 {
		return TResult{}, fmt.Errorf("stats: Welch t-test requires n,m >= 2 (n=%v, m=%v)", x.N(), y.N())
	}
	vx, vy := x.Variance(), y.Variance()
	n, m := x.N(), y.N()
	se2 := vx/n + vy/m
	if se2 == 0 {
		// Identical constants: no evidence of difference unless means differ.
		if x.Mean() == y.Mean() {
			return TResult{T: 0, DF: n + m - 2, Reject: false}, nil
		}
		return TResult{T: math.Inf(1), DF: n + m - 2, Reject: true}, nil
	}
	t := (x.Mean() - y.Mean()) / math.Sqrt(se2)
	df := se2 * se2 / ((vx*vx)/(n*n*(n-1)) + (vy*vy)/(m*m*(m-1)))
	return TResult{T: t, DF: df, Reject: math.Abs(t) > 4.5}, nil
}

// KSThreshold exposes Eq. 3 directly for documentation and tests.
func KSThreshold(alpha, n, m float64) float64 {
	return math.Sqrt(-math.Log((1-alpha)/2)/2) * math.Sqrt((n+m)/(n*m))
}
