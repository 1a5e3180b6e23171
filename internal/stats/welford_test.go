package stats

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// batchMoments computes mean and N-1 variance the direct two-pass way.
func batchMoments(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(len(xs)-1)
}

// TestWelfordPropertyStreamedEqualsBatch is the satellite property test:
// for random streams, random split points, and random merge trees, the
// streamed/merged accumulator matches the two-pass batch computation to
// 1e-12 relative accuracy.
func TestWelfordPropertyStreamedEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	approx := func(got, want float64) bool {
		scale := math.Max(1, math.Abs(want))
		return math.Abs(got-want) <= 1e-12*scale
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(400)
		xs := make([]float64, n)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		offset := (rng.Float64() - 0.5) * 1e4
		for i := range xs {
			xs[i] = offset + rng.NormFloat64()*scale
		}
		wantMean, wantVar := batchMoments(xs)

		// Streamed one at a time.
		var streamed Welford
		for _, x := range xs {
			streamed.Add(x)
		}

		// Split into 1..6 chunks, accumulate each, then merge left to right.
		chunks := 1 + rng.Intn(6)
		var merged Welford
		start := 0
		for c := 0; c < chunks; c++ {
			end := start + (n-start)/(chunks-c)
			if c == chunks-1 {
				end = n
			}
			var part Welford
			for _, x := range xs[start:end] {
				part.Add(x)
			}
			merged.Merge(part)
			start = end
		}

		for name, w := range map[string]Welford{"streamed": streamed, "merged": merged} {
			if w.Count != float64(n) {
				t.Fatalf("trial %d %s: count %v, want %d", trial, name, w.Count, n)
			}
			if !approx(w.Mean, wantMean) {
				t.Fatalf("trial %d %s: mean %v, want %v", trial, name, w.Mean, wantMean)
			}
			if !approx(w.Variance(), wantVar) {
				t.Fatalf("trial %d %s: variance %v, want %v", trial, name, w.Variance(), wantVar)
			}
		}
	}
}

// TestWelfordAddZeros checks the O(1) zero-padding matches literally
// appending zeros.
func TestWelfordAddZeros(t *testing.T) {
	xs := []float64{3.5, -1.25, 8, 0.5, 12}
	var padded Welford
	for _, x := range xs {
		padded.Add(x)
	}
	padded.AddZeros(7)

	var literal Welford
	for _, x := range xs {
		literal.Add(x)
	}
	for i := 0; i < 7; i++ {
		literal.Add(0)
	}
	if padded.Count != literal.Count {
		t.Fatalf("count %v != %v", padded.Count, literal.Count)
	}
	if math.Abs(padded.Mean-literal.Mean) > 1e-12 {
		t.Fatalf("mean %v != %v", padded.Mean, literal.Mean)
	}
	if math.Abs(padded.Variance()-literal.Variance()) > 1e-9 {
		t.Fatalf("variance %v != %v", padded.Variance(), literal.Variance())
	}
	// Padding an empty accumulator is a pure zero sample.
	var empty Welford
	empty.AddZeros(3)
	if empty.Count != 3 || empty.Mean != 0 || empty.Variance() != 0 {
		t.Fatalf("empty pad: %+v", empty)
	}
}

// TestWelchTWelfordMatchesSampleWelch cross-checks the accumulator t-test
// against the existing Sample-based WelchT on shared data.
func TestWelchTWelfordMatchesSampleWelch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		nx, ny := 2+rng.Intn(60), 2+rng.Intn(60)
		xs, ys := make([]float64, nx), make([]float64, ny)
		var wx, wy Welford
		sx, sy := &Sample{}, &Sample{}
		for i := range xs {
			xs[i] = rng.NormFloat64()*3 + 1
			wx.Add(xs[i])
			sx.Add(xs[i], 1)
		}
		shift := float64(trial%5) * 2
		for i := range ys {
			ys[i] = rng.NormFloat64()*3 + 1 + shift
			wy.Add(ys[i])
			sy.Add(ys[i], 1)
		}
		want, err := WelchT(sx, sy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := WelchTWelford(wx, wy, 4.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.T-want.T) > 1e-9*math.Max(1, math.Abs(want.T)) {
			t.Fatalf("trial %d: t %v vs %v", trial, got.T, want.T)
		}
		if math.Abs(got.DF-want.DF) > 1e-9*want.DF {
			t.Fatalf("trial %d: df %v vs %v", trial, got.DF, want.DF)
		}
		if got.Reject != want.Reject {
			t.Fatalf("trial %d: reject %v vs %v", trial, got.Reject, want.Reject)
		}
	}
}

// TestWelchTWelfordTVLAFixture is the TVLA fixture: fixed-vs-random
// Welch's t with the |t| > 4.5 pass/fail rule described in SNIPPETS.md's
// leakage-assessment exemplar. The vectors model a leaking observable (a
// constant fixed-class value vs. spread random-class values — the
// signature of a secret-indexed table lookup under a fixed key) and a
// non-leaking control (both classes drawn identically). Expected values
// come from the Welch formula evaluated independently (two-pass moments,
// no Welford path):
//
//	t = (mean_f - mean_r) / sqrt(var_f/n_f + var_r/n_r)
//
// fixed = {64}x10 (var 0), random = {0,16,32,48,64,80,96,112,16,48}
// (mean 51.2, ss 12185.6): at n = 10/class t = 12.8/sqrt(12185.6/9/10)
// ≈ 1.1000 — under threshold; each value repeated 10x (n = 100/class)
// t ≈ 3.6484 — still under; repeated 20x (n = 200/class) t ≈ 5.1727 —
// crosses 4.5 and the verdict flips, the sequential-trace TVLA story the
// early stop exploits.
func TestWelchTWelfordTVLAFixture(t *testing.T) {
	accum := func(xs []float64) Welford {
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		return w
	}
	repeat := func(xs []float64, k int) []float64 {
		var out []float64
		for i := 0; i < k; i++ {
			out = append(out, xs...)
		}
		return out
	}
	// Independent reference: two-pass moments + explicit Welch formula.
	refT := func(xs, ys []float64) float64 {
		mx, vx := batchMoments(xs)
		my, vy := batchMoments(ys)
		return (mx - my) / math.Sqrt(vx/float64(len(xs))+vy/float64(len(ys)))
	}

	fixedVals := []float64{64, 64, 64, 64, 64, 64, 64, 64, 64, 64}
	randomVals := []float64{0, 16, 32, 48, 64, 80, 96, 112, 16, 48}

	cases := []struct {
		name       string
		k          int     // repetitions of each class vector
		approxT    float64 // hand-computed literal, locked to 1e-3
		wantReject bool
	}{
		{"n=10", 1, 1.1000, false},
		{"n=100", 10, 3.6484, false},
		{"n=200", 20, 5.1727, true},
	}
	for _, c := range cases {
		fx := repeat(fixedVals, c.k)
		rn := repeat(randomVals, c.k)
		got, err := WelchTWelford(accum(fx), accum(rn), 4.5)
		if err != nil {
			t.Fatal(err)
		}
		want := refT(fx, rn)
		if math.Abs(got.T-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: t = %v, reference formula gives %v", c.name, got.T, want)
		}
		if math.Abs(got.T-c.approxT) > 1e-3 {
			t.Fatalf("%s: t = %.4f, fixture literal %.4f", c.name, got.T, c.approxT)
		}
		if got.Reject != c.wantReject {
			t.Fatalf("%s: reject = %v, want %v (t = %v)", c.name, got.Reject, c.wantReject, got.T)
		}
	}

	// Non-leaking control: identical class distributions → t = 0.
	rnull, err := WelchTWelford(accum(randomVals), accum(randomVals), 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if rnull.T != 0 || rnull.Reject {
		t.Fatalf("null fixture: %+v", rnull)
	}

	// Degenerate zero-variance pair with distinct means rejects at +Inf,
	// mirroring WelchT's contract.
	rinf, err := WelchTWelford(accum([]float64{5, 5, 5}), accum([]float64{9, 9, 9}), 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rinf.T, 1) || !rinf.Reject {
		t.Fatalf("const fixture: %+v", rinf)
	}
}

func TestTConfidence(t *testing.T) {
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 0},
		{1.959963985, 0.95},
		{4.5, 0.99999320465},
	}
	for _, c := range cases {
		got := TConfidence(c.t)
		if math.Abs(got-c.want) > 1e-6 {
			t.Fatalf("TConfidence(%v) = %v, want %v", c.t, got, c.want)
		}
		if neg := TConfidence(-c.t); neg != got {
			t.Fatalf("TConfidence sign asymmetry at %v", c.t)
		}
	}
	if TConfidence(math.Inf(1)) != 1 {
		t.Fatal("TConfidence(+Inf) != 1")
	}
}

// TestMIEstimator covers the exact-map phase, the rebin-on-overflow fold,
// and the analytic values of simple distributions.
func TestMIEstimator(t *testing.T) {
	// Perfectly informative: class 0 always sees 0, class 1 always sees 1
	// → I = 1 bit.
	mi := NewMIEstimator(16)
	for i := 0; i < 20; i++ {
		mi.Observe(0, 0, 1)
		mi.Observe(1, 1, 1)
	}
	if got := mi.Bits(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect MI = %v, want 1", got)
	}

	// Independent: both classes see the same distribution → I = 0.
	mi = NewMIEstimator(16)
	for i := 0; i < 20; i++ {
		mi.Observe(0, float64(i%4), 1)
		mi.Observe(1, float64(i%4), 1)
	}
	if got := mi.Bits(); got > 1e-12 {
		t.Fatalf("independent MI = %v, want 0", got)
	}

	// Half-informative: class 0 uniform on {0,1}, class 1 always 0.
	// I = H(C) - H(C|V): p(v=0)=3/4 where classes split 1/3 vs 2/3,
	// p(v=1)=1/4 pure class 0 → I = 1 - 0.75*H(1/3) = 0.311278...
	mi = NewMIEstimator(16)
	for i := 0; i < 10; i++ {
		mi.Observe(0, float64(i%2), 1)
		mi.Observe(1, 0, 1)
	}
	want := 1 - 0.75*(-(1.0/3)*math.Log2(1.0/3)-(2.0/3)*math.Log2(2.0/3))
	if got := mi.Bits(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("half MI = %v, want %v", got, want)
	}

	// Zero observations in one class → 0 by definition.
	mi = NewMIEstimator(16)
	mi.Observe(0, 3, 2)
	if got := mi.Bits(); got != 0 {
		t.Fatalf("single-class MI = %v, want 0", got)
	}

	// Rebin: overflow a 4-bin cap with a perfectly separated layout that
	// stays separated after the fold (class 0 low values, class 1 high,
	// both ends seen before the overflow so the folded range spans them) —
	// MI remains 1 bit through the rebin, and observations after the fold
	// land in the folded grid (including out-of-range clamps into the edge
	// cells).
	mi = NewMIEstimator(4)
	mi.Observe(0, 0, 1)
	mi.Observe(1, 100, 1)
	for i := 1; i < 8; i++ {
		mi.Observe(0, float64(i), 1) // distinct low values force the fold
	}
	for i := 1; i < 8; i++ {
		mi.Observe(1, float64(100+i), 1) // post-fold: clamp into the top cell
	}
	mi.Observe(1, 1e9, 1)  // clamps into the top cell
	mi.Observe(0, -1e9, 1) // clamps into the bottom cell
	if got := mi.Bits(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("rebinned MI = %v, want 1", got)
	}
}

// TestMIEstimatorWeighted checks weighted observations count as
// multiplicity.
func TestMIEstimatorWeighted(t *testing.T) {
	a := NewMIEstimator(16)
	b := NewMIEstimator(16)
	for i := 0; i < 6; i++ {
		v := float64(i % 3)
		a.Observe(i%2, v, 4)
		for k := 0; k < 4; k++ {
			b.Observe(i%2, v, 1)
		}
	}
	if ga, gb := a.Bits(), b.Bits(); math.Abs(ga-gb) > 1e-12 {
		t.Fatalf("weighted %v != repeated %v", ga, gb)
	}
}

// TestMIEstimatorBitsDeterministic pins Bits to the last bit: the exact
// cells must sum in value order, so neither the order observations
// arrived in nor map iteration order can move the result.
func TestMIEstimatorBitsDeterministic(t *testing.T) {
	type obs struct {
		class         int
		value, weight float64
	}
	var seq []obs
	for i := 0; i < 40; i++ {
		seq = append(seq, obs{class: i % 2, value: float64((i*7)%23) * 0.37, weight: float64(1 + i%5)})
	}
	build := func(order []int) *MIEstimator {
		m := NewMIEstimator(64)
		for _, i := range order {
			o := seq[i]
			m.Observe(o.class, o.value, o.weight)
		}
		return m
	}
	order := make([]int, len(seq))
	for i := range order {
		order[i] = i
	}
	want := build(order).Bits()
	if want == 0 {
		t.Fatal("fixture carries no information")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		m := build(order)
		for call := 0; call < 5; call++ {
			if got := m.Bits(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d call %d: Bits = %v (%#x), want %v (%#x)",
					trial, call, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// mapMIEstimator is the map-backed MIEstimator the sorted-cell one
// replaced, kept as the reference its results must match bit for bit.
type mapMIEstimator struct {
	maxBins int
	exact   map[float64]*[2]float64
	classN  [2]float64

	binned   bool
	lo, step float64
	bins     [][2]float64
}

func newMapMIEstimator(maxBins int) *mapMIEstimator {
	if maxBins <= 0 {
		maxBins = 64
	}
	return &mapMIEstimator{maxBins: maxBins, exact: make(map[float64]*[2]float64)}
}

func (m *mapMIEstimator) Observe(class int, value, weight float64) {
	if weight <= 0 {
		return
	}
	m.classN[class] += weight
	if !m.binned {
		cell := m.exact[value]
		if cell == nil {
			if len(m.exact) >= m.maxBins {
				m.rebin()
			} else {
				cell = new([2]float64)
				m.exact[value] = cell
			}
		}
		if cell != nil {
			cell[class] += weight
			return
		}
	}
	m.bins[m.binIdx(value)][class] += weight
}

func (m *mapMIEstimator) rebin() {
	lo, hi := math.Inf(1), math.Inf(-1)
	for v := range m.exact {
		lo, hi = min(lo, v), max(hi, v)
	}
	m.lo = lo
	m.step = (hi - lo) / float64(m.maxBins)
	if m.step == 0 {
		m.step = 1
	}
	m.bins = make([][2]float64, m.maxBins)
	for v, cell := range m.exact {
		b := &m.bins[m.binIdx(v)]
		b[0] += cell[0]
		b[1] += cell[1]
	}
	m.exact = nil
	m.binned = true
}

func (m *mapMIEstimator) binIdx(v float64) int {
	i := int((v - m.lo) / m.step)
	if i < 0 {
		return 0
	}
	if i >= m.maxBins {
		return m.maxBins - 1
	}
	return i
}

func (m *mapMIEstimator) Bits() float64 {
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
		vals := make([]float64, 0, len(m.exact))
		for v := range m.exact {
			vals = append(vals, v)
		}
		slices.Sort(vals)
		for _, v := range vals {
			cell(*m.exact[v])
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// TestMIEstimatorMatchesMapReference streams random observations into
// the sorted-cell estimator and the map-backed reference and requires the
// same Bits, to the last bit, after every step. Streams mix the two
// shapes the evidence engine feeds: an address histogram's ascending
// cells with integral weights (duplicate values across histograms, some
// non-positive weights, a cap small enough that the rebin fires in the
// middle of a histogram) and the cost channel's single unit-weight
// observations in arbitrary order.
func TestMIEstimatorMatchesMapReference(t *testing.T) {
	rebinnedMid := false
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		maxBins := []int{0, 1, 4, 16, 64}[seed%5]
		values := 8 + r.Intn(120)
		got, want := NewMIEstimator(maxBins), newMapMIEstimator(maxBins)
		check := func(step int) {
			t.Helper()
			g, w := got.Bits(), want.Bits()
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d step %d: Bits = %v (%#x), map reference %v (%#x)",
					seed, step, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		for step := 0; step < 60; step++ {
			class := r.Intn(2)
			if r.Intn(4) == 0 {
				// A cost-channel site: one mean value per run.
				v := float64(r.Intn(values)) * 0.25
				got.Observe(class, v, 1)
				want.Observe(class, v, 1)
				check(step)
				continue
			}
			// An address histogram: strictly ascending values.
			var hist []float64
			for v := r.Intn(4); v < values; v += 1 + r.Intn(6) {
				hist = append(hist, float64(v))
			}
			wasBinned := want.binned
			for i, v := range hist {
				w := float64(1 + r.Intn(9))
				if r.Intn(12) == 0 {
					w = -float64(r.Intn(2)) // 0 or -1: dropped
				}
				got.Observe(class, v, w)
				want.Observe(class, v, w)
				if !wasBinned && want.binned && i > 0 && i < len(hist)-1 {
					rebinnedMid = true
				}
			}
			check(step)
		}
	}
	if !rebinnedMid {
		t.Fatal("no rebin fired in the middle of a histogram; test is vacuous")
	}
}

// miCellRun is one run's histogram cell: an address and its count.
type miCellRun struct {
	addr  uint64
	count int64
}

// aesTableRuns returns runs shaped like an aes128 T-table histogram,
// ascending addresses with counts of 1 to 4. fixed is one run of 36
// addresses, which the fixed key repeats. random holds 64 runs that
// each draw 24 of a 256-entry table, as random keys do.
func aesTableRuns() (fixed []miCellRun, random [][]miCellRun) {
	rng := rand.New(rand.NewSource(1))
	table := func(picked func(v int) bool) []miCellRun {
		var run []miCellRun
		for v := range 256 {
			if picked(v) {
				run = append(run, miCellRun{uint64(4096 + 4*v), int64(1 + rng.Intn(4))})
			}
		}
		return run
	}
	fixed = table(func(v int) bool { return v%8 < 1 || v%64 < 2 })
	random = make([][]miCellRun, 64)
	for i := range random {
		picked := rng.Perm(256)[:24]
		random[i] = table(func(v int) bool { return slices.Contains(picked, v) })
	}
	return fixed, random
}

// weighted returns run's cells as ObserveRun takes them, in buf.
func weighted(buf []Weighted, run []miCellRun) []Weighted {
	buf = buf[:0]
	for _, c := range run {
		buf = append(buf, Weighted{float64(c.addr), float64(c.count)})
	}
	return buf
}

// TestMIObserveRunMatchesPerCell folds aes128 T-table runs into three
// estimators at the engine's 64-cell cap: one ObserveRun per run, one
// Observe per cell, and the per-cell insert path every cell. After every
// run the three must hold the same state, read by reflect.DeepEqual, and
// the same Bits. The fixed-key runs fold into fresh estimators and into
// ones that hold random-key runs; the random-key runs pass the cap, and
// the test requires a run that crosses it to have folded through
// ObserveRun.
func TestMIObserveRunMatchesPerCell(t *testing.T) {
	fixed, random := aesTableRuns()
	crossed := 0
	for _, tc := range []struct {
		name string
		runs func(i int) []miCellRun
	}{
		{"fixed", func(int) []miCellRun { return fixed }},
		{"random", func(i int) []miCellRun { return random[i%len(random)] }},
		{"mixed", func(i int) []miCellRun {
			if i%3 == 0 {
				return fixed
			}
			return random[i%len(random)]
		}},
	} {
		run, one, cell := NewMIEstimator(64), NewMIEstimator(64), NewMIEstimator(64)
		for i := range 40 {
			class, cells := i%2, tc.runs(i)
			binned := run.binned
			run.ObserveRun(class, weighted(nil, cells))
			for _, c := range cells {
				one.Observe(class, float64(c.addr), float64(c.count))
				cell.observe(class, float64(c.addr), float64(c.count))
			}
			if !binned && run.binned && len(cells) > 1 {
				crossed++
			}
			if !reflect.DeepEqual(run, cell) || !reflect.DeepEqual(one, cell) {
				t.Fatalf("%s run %d: ObserveRun %+v, Observe %+v, per cell %+v", tc.name, i, run, one, cell)
			}
			if g, o, w := run.Bits(), one.Bits(), cell.Bits(); math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(o) != math.Float64bits(w) {
				t.Fatalf("%s run %d: Bits %v (ObserveRun), %v (Observe), %v per cell", tc.name, i, g, o, w)
			}
		}
	}
	if crossed == 0 {
		t.Fatal("no run crossed the cap through ObserveRun")
	}
}

// BenchmarkMIObserveRun folds runs shaped like an aes128 T-table
// histogram into one estimator at the engine's 64-cell cap, one
// ObserveRun per run, as the evidence engine merges a run. "fixed"
// repeats one run of 36 addresses, so every value finds its exact cell,
// as under the fixed key. "random" draws 24 of a 256-entry table per
// run, so the cells pass the cap and rebin within the first runs, as
// under random keys. One op is one run; the estimator starts afresh
// every 64 runs.
func BenchmarkMIObserveRun(b *testing.B) {
	fixed, random := aesTableRuns()
	shapes := []struct {
		name string
		run  func(i int) []miCellRun
	}{
		{"fixed", func(int) []miCellRun { return fixed }},
		{"random", func(i int) []miCellRun { return random[i%len(random)] }},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			var mi *MIEstimator
			var buf []Weighted
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					mi = NewMIEstimator(64)
				}
				buf = weighted(buf, sh.run(i))
				mi.ObserveRun(i%2, buf)
			}
		})
	}
}
