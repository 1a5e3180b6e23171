package stats

import (
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
// zero padding up to all-zero sides, and single observations. D, p and
// the verdict must be bit-identical.
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
		got, err := KSTestSorted(xs, xz, ys, yz, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.D) != math.Float64bits(want.D) || math.Float64bits(got.P) != math.Float64bits(want.P) ||
			math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) || got.Reject != want.Reject {
			t.Fatalf("iteration %d: KSTestSorted %v, reference %v\nx %v + %d zeros\ny %v + %d zeros", iter, got, want, x, xz, y, yz)
		}
	}
	if _, err := KSTestSorted(nil, 0, []float64{1}, 0, 0.95); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := KSTestSorted([]float64{1}, 0, nil, 3, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
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
