package stats

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func uniformSample(r *rand.Rand, n int) *Sample {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	return NewSample(xs)
}

func TestKSSameDistributionAccepts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rejections := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		x := uniformSample(r, 100)
		y := uniformSample(r, 100)
		res, err := KSTest(x, y, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejections++
		}
	}
	// At alpha=0.95 the false-rejection rate should be around 5%.
	if rejections > trials/4 {
		t.Errorf("%d/%d same-distribution pairs rejected", rejections, trials)
	}
}

func TestKSDifferentDistributionsReject(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	x := uniformSample(r, 200)
	ys := make([]float64, 200)
	for i := range ys {
		ys[i] = r.Float64()*0.5 + 0.5 // uniform on [0.5, 1]
	}
	res, err := KSTest(x, NewSample(ys), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("disjoint-ish distributions accepted: %v", res)
	}
	if res.D < 0.4 {
		t.Errorf("D = %v, expected about 0.5", res.D)
	}
}

func TestKSIdenticalSamplesDZero(t *testing.T) {
	x := NewSample([]float64{1, 2, 3, 4})
	y := NewSample([]float64{1, 2, 3, 4})
	res, err := KSTest(x, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 || res.Reject {
		t.Errorf("identical samples: %v", res)
	}
	if res.P != 1 {
		t.Errorf("p = %v, want 1", res.P)
	}
}

func TestKSCompletelyDisjoint(t *testing.T) {
	x := NewSample([]float64{1, 1, 1})
	y := NewSample([]float64{2, 2, 2})
	res, err := KSTest(x, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 1 {
		t.Errorf("D = %v, want 1", res.D)
	}
}

func TestKSWeightedEquivalence(t *testing.T) {
	// A weighted sample must behave exactly like its expansion.
	x := &Sample{}
	x.Add(1, 3)
	x.Add(5, 2)
	expanded := NewSample([]float64{1, 1, 1, 5, 5})
	y := NewSample([]float64{1, 2, 3, 4, 5})
	r1, err := KSTest(x, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := KSTest(expanded, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.D-r2.D) > 1e-12 || math.Abs(r1.P-r2.P) > 1e-12 {
		t.Errorf("weighted %v != expanded %v", r1, r2)
	}
}

func TestKSSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := uniformSample(r, 30)
		y := uniformSample(r, 50)
		a, err1 := KSTest(x, y, 0.95)
		b, err2 := KSTest(y, x, 0.95)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.D-b.D) < 1e-12 && math.Abs(a.P-b.P) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKSThresholdEq3(t *testing.T) {
	// Eq. 3 at alpha=0.95, n=m=100: c(alpha)=sqrt(-ln(0.025)/2)=1.3581,
	// sqrt(200/10000)=0.1414 => 0.1921.
	got := KSThreshold(0.95, 100, 100)
	if math.Abs(got-0.19206) > 1e-4 {
		t.Errorf("threshold = %v, want ~0.19206", got)
	}
}

func TestKSRejectMatchesThreshold(t *testing.T) {
	// The p-value rule p < 1-alpha and the D > D_{n,m} rule agree.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := uniformSample(r, 40)
		ys := make([]float64, 40)
		for i := range ys {
			ys[i] = r.Float64() * (0.5 + r.Float64())
		}
		res, err := KSTest(x, NewSample(ys), 0.95)
		if err != nil {
			return false
		}
		return res.Reject == (res.D > res.Threshold)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKSValidation(t *testing.T) {
	x := NewSample([]float64{1})
	if _, err := KSTest(x, &Sample{}, 0.95); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := KSTest(x, x, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
}

// TestKSTestSortedMatchesKSTest runs the ordered walk against KSTest over
// the same observations in their original order, zeros appended as
// padding: per-run vectors with many ties, values on both sides of zero,
// zero padding up to all-zero sides, and single observations. The walk
// reads the sorted observations as counted entries, a run of equal
// values split at random over neighbouring entries. D, p and the verdict
// must be bit-identical.
func TestKSTestSortedMatchesKSTest(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	side := func() ([]float64, int) {
		xs := make([]float64, r.Intn(60))
		levels := 1 + r.Intn(6) // few levels: many ties
		for i := range xs {
			switch r.Intn(4) {
			case 0:
				xs[i] = r.NormFloat64() * 100 // distinct values
			case 1:
				xs[i] = 0
			default:
				xs[i] = float64(r.Intn(levels)-1) * 0.25
			}
		}
		zeros := 0
		if r.Intn(3) == 0 || len(xs) == 0 {
			zeros = 1 + r.Intn(40)
		}
		return xs, zeros
	}
	padded := func(xs []float64, zeros int) *Sample {
		return NewSample(append(slices.Clone(xs), make([]float64, zeros)...))
	}
	for iter := 0; iter < 3000; iter++ {
		x, xz := side()
		y, yz := side()
		if iter%10 == 0 { // a single observation
			x, xz = []float64{float64(r.Intn(3) - 1)}, 0
		}
		want, err := KSTest(padded(x, xz), padded(y, yz), 0.95)
		if err != nil {
			t.Fatal(err)
		}
		xs, ys := slices.Clone(x), slices.Clone(y)
		slices.Sort(xs)
		slices.Sort(ys)
		got, err := KSTestSorted(countRuns(r, xs), xz, countRuns(r, ys), yz, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.D) != math.Float64bits(want.D) || math.Float64bits(got.P) != math.Float64bits(want.P) ||
			math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) || got.Reject != want.Reject {
			t.Fatalf("iteration %d: KSTestSorted %v, reference %v\nx %v + %d zeros\ny %v + %d zeros", iter, got, want, x, xz, y, yz)
		}
	}
	if _, err := KSTestSorted(nil, 0, []Count{{1, 1}}, 0, 0.95); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := KSTestSorted([]Count{{1, 1}}, 0, nil, 3, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
}

// countRuns returns xs as counted entries: each run of equal values is
// one entry, or, at random, split over neighbouring entries.
func countRuns(r *rand.Rand, xs []float64) []Count {
	var cs []Count
	for i, x := range xs {
		if i > 0 && x == xs[i-1] && r.Intn(3) > 0 {
			cs[len(cs)-1].N++
			continue
		}
		cs = append(cs, Count{x, 1})
	}
	return cs
}

func TestSampleMoments(t *testing.T) {
	s := NewSample([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-9 {
		t.Errorf("variance = %v, want %v", got, 32.0/7)
	}
	if s.N() != 8 {
		t.Errorf("N = %v", s.N())
	}
}

func TestSampleIgnoresNonPositiveWeights(t *testing.T) {
	s := &Sample{}
	s.Add(1, 0)
	s.Add(2, -3)
	if s.N() != 0 || s.Len() != 0 {
		t.Errorf("non-positive weights recorded: N=%v Len=%d", s.N(), s.Len())
	}
}

func TestWelchTDetectsMeanShift(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64() + 3
	}
	res, err := WelchT(NewSample(xs), NewSample(ys))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("3-sigma mean shift not rejected: %+v", res)
	}
}

func TestWelchTConstantSamples(t *testing.T) {
	x := NewSample([]float64{5, 5, 5})
	y := NewSample([]float64{5, 5, 5})
	res, err := WelchT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Errorf("identical constants rejected: %+v", res)
	}
	z := NewSample([]float64{6, 6, 6})
	res, err = WelchT(x, z)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("different constants accepted: %+v", res)
	}
}

// TestWelchMissesShapeChange demonstrates the paper's argument for KS
// (§VII-B): a distribution change that preserves the mean is invisible to
// the t-test but caught by KS.
func TestWelchMissesShapeChange(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	xs := make([]float64, 400) // all mass near the mean
	ys := make([]float64, 400) // bimodal with the same mean
	for i := range xs {
		xs[i] = 0.5 + 0.01*r.NormFloat64()
		if i%2 == 0 {
			ys[i] = 0
		} else {
			ys[i] = 1
		}
	}
	x, y := NewSample(xs), NewSample(ys)
	wres, err := WelchT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	kres, err := KSTest(x, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !kres.Reject {
		t.Errorf("KS missed the shape change: %v", kres)
	}
	if wres.Reject {
		t.Skipf("t-test happened to reject (t=%v); the KS advantage still holds", wres.T)
	}
}

// FuzzKSCounted runs the counted walk against KSTest over the expanded
// observations. Each input byte pair is one counted entry of x or y: a
// value from a palette with zeros, negative zero, repeats and both signs,
// and a count of 1 to 8. The entries are sorted with SortCounts, as the
// detector sorts them, then walked with the extra zeros counted apart.
// D, p and the verdict must be bit-identical, and an empty side must be
// an error on both. The same entries added in order to a Counted must
// expand to the same observations and stay coalesced.
func FuzzKSCounted(f *testing.F) {
	f.Add([]byte{0, 1, 3, 2, 5, 1, 2, 4}, uint8(0), uint8(0))
	f.Add([]byte{2, 3, 4, 1, 6, 2, 7, 1, 8, 8, 1, 1}, uint8(3), uint8(0))
	f.Add([]byte{0, 8, 2, 8, 1, 1}, uint8(0), uint8(5))
	f.Add([]byte{}, uint8(2), uint8(2))
	f.Add([]byte{4, 1, 6, 1, 4, 2, 6, 2, 4, 3, 6, 3, 4, 4, 6, 4, 4, 5, 6, 5, 4, 6, 6, 6, 4, 7, 6, 7, 4, 8, 6, 8}, uint8(0), uint8(1))
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, -2.5, 3, 1e-300, -1e300}
	f.Fuzz(func(t *testing.T, data []byte, xZeros, yZeros uint8) {
		var sides [2][]Count
		var counted [2]Counted
		for i := 0; i+1 < len(data); i += 2 {
			side := data[i] & 1
			e := Count{palette[int(data[i]>>1)%len(palette)], 1 + int(data[i+1]%8)}
			sides[side] = append(sides[side], e)
			counted[side].Add(e.Value, e.N, 0)
		}
		zeros := [2]int{int(xZeros % 16), int(yZeros % 16)}
		var samples [2]*Sample
		for s := range sides {
			var runs []float64
			for _, e := range sides[s] {
				for range e.N {
					runs = append(runs, e.Value)
				}
			}
			got := counted[s].AppendTo(nil)
			if counted[s].N() != len(runs) || len(got) != len(runs) {
				t.Fatalf("side %d: Counted holds %d observations, %d expanded, want %d", s, counted[s].N(), len(got), len(runs))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(runs[i]) {
					t.Fatalf("side %d: Counted expands to %v, want %v", s, got, runs)
				}
			}
			for i, e := range counted[s].Counts {
				if e.N < 1 || i > 0 && math.Float64bits(e.Value) == math.Float64bits(counted[s].Counts[i-1].Value) {
					t.Fatalf("side %d: entries %v not coalesced", s, counted[s].Counts)
				}
			}
			samples[s] = NewSample(append(runs, make([]float64, zeros[s])...))
			buf := make([]Count, len(sides[s]))
			SortCounts(sides[s], buf)
			for i := 1; i < len(sides[s]); i++ {
				if sides[s][i].Value < sides[s][i-1].Value {
					t.Fatalf("side %d: SortCounts left %v", s, sides[s])
				}
			}
		}
		want, werr := KSTest(samples[0], samples[1], 0.95)
		got, err := KSTestSorted(sides[0], zeros[0], sides[1], zeros[1], 0.95)
		if (err != nil) != (werr != nil) {
			t.Fatalf("KSTestSorted error %v, KSTest error %v", err, werr)
		}
		if err != nil {
			return
		}
		if math.Float64bits(got.D) != math.Float64bits(want.D) || math.Float64bits(got.P) != math.Float64bits(want.P) ||
			math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) || got.Reject != want.Reject {
			t.Fatalf("KSTestSorted %v, KSTest %v\nx %v + %d zeros\ny %v + %d zeros", got, want, sides[0], zeros[0], sides[1], zeros[1])
		}
	})
}

// TestSortCounts checks SortCounts against slices.SortFunc at lengths
// around its block size and its merge widths, with many ties.
func TestSortCounts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := range 200 {
		cs := make([]Count, n)
		for i := range cs {
			cs[i] = Count{float64(r.Intn(n/3 + 1)), 1 + r.Intn(3)}
		}
		want := slices.Clone(cs)
		slices.SortStableFunc(want, func(a, b Count) int { return cmp.Compare(a.Value, b.Value) })
		SortCounts(cs, make([]Count, n))
		// Entries of equal value may come in any order; their counts must
		// add up to the same.
		if !slices.EqualFunc(cs, want, func(a, b Count) bool { return a.Value == b.Value }) {
			t.Fatalf("n=%d: SortCounts gives %v, want %v", n, cs, want)
		}
		if countN(cs) != countN(want) {
			t.Fatalf("n=%d: counts %d, want %d", n, countN(cs), countN(want))
		}
		for v := range n/3 + 1 {
			at := func(xs []Count) (c int) {
				for _, x := range xs {
					if x.Value == float64(v) {
						c += x.N
					}
				}
				return c
			}
			if at(cs) != at(want) {
				t.Fatalf("n=%d: value %d counts %d, want %d", n, v, at(cs), at(want))
			}
		}
	}
}
