package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is BENCHMARK.json as far as the tests check it.
type spec struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesMetrics pins BENCHMARK.json to the metrics owlperf
// emits, name and unit, in both modes.
func TestSpecMatchesMetrics(t *testing.T) {
	s := loadSpec(t)
	check := func(mode string, got []metricSpec, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: owlperf emits %d metrics, BENCHMARK.json lists %d", mode, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.name]; !ok || u != m.unit {
				t.Errorf("%s: metric %s (%s) is %q in BENCHMARK.json", mode, m.name, m.unit, u)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layers)
}

// TestTinyWorkloads runs every workload at the tiny scale in both modes
// and checks what a full run promises: every metric present, finite and
// with its unit, no failed or wrong detection, and layers that cover the
// detection wall.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			o, _, err := measure(w, config{seed: 1, trace: trace, tiny: true})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d failed", w.name, trace, o.Failed, o.Attempted)
			}
			specs := endToEnd
			if trace == 1 {
				specs = perLayer
			}
			if len(o.Metrics) != len(specs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(o.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := o.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: no metric %s", w.name, trace, s.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: %s = %v", w.name, trace, s.name, m.Value)
				case m.Unit == "" || m.Unit != s.unit:
					t.Errorf("%s trace %d: %s has unit %q, want %q", w.name, trace, s.name, m.Unit, s.unit)
				}
			}
			if trace == 1 {
				if c := o.Metrics["layers.coverage"].Value; c < 0.95 {
					t.Errorf("%s: layers.coverage %.4f < 0.95", w.name, c)
				}
			}
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

// TestPercentileNeedsTenBeyond pins the tail rule: a percentile is
// reported only with at least 10 samples above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct{ pct, need int }{{50, 20}, {75, 40}, {90, 100}} {
		if got := samplesFor(c.pct); got != c.need {
			t.Errorf("samplesFor(%d) = %d, want %d", c.pct, got, c.need)
		}
		if _, err := percentile(seq(c.need-1), c.pct); err == nil {
			t.Errorf("p%d of %d samples accepted", c.pct, c.need-1)
		}
		v, err := percentile(seq(c.need), c.pct)
		if err != nil {
			t.Fatalf("p%d of %d samples: %v", c.pct, c.need, err)
		}
		if beyond := c.need - int(v); beyond != 10 {
			t.Errorf("p%d of 1..%d = %v leaves %d beyond, want 10", c.pct, c.need, v, beyond)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of no samples accepted")
	}
}

// TestQuartilesMatchPython checks the quartile method against values
// Python's statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, med, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value accepted")
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := Outcome{Correct: true, Attempted: 1, Metrics: map[string]Metric{
			"ok":  {1.5, "ms"},
			"bad": {v, "ms"},
		}}
		if _, err := encodeOutcome(o); err == nil || !strings.Contains(err.Error(), "bad") {
			t.Errorf("value %v: err = %v, want an error naming the metric", v, err)
		}
	}
	o := Outcome{Correct: true, Attempted: 3, Metrics: map[string]Metric{"x": {0.1234567891234, "ms"}}}
	b, err := encodeOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := lastOutcome(append([]byte("# header\n"), b...))
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics["x"] != o.Metrics["x"] || back.Attempted != 3 {
		t.Errorf("round trip: got %+v, want %+v", back, o)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end": [
		{"name": "steady", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i, noisy := range []float64{100, 130, 90, 120} {
		f := ResultFile{Runs: []RunResult{
			{Workload: "w", Trace: 0, Outcome: Outcome{Metrics: map[string]Metric{
				"steady": {100 + float64(i), "ms"},
				"noisy":  {noisy, "ms"},
			}}},
			{Workload: "w", Trace: 1, Outcome: Outcome{Metrics: map[string]Metric{}}},
		}}
		p := filepath.Join(dir, filepath.Base(t.Name())+string(rune('a'+i))+".json")
		if err := writeJSON(p, f); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var out strings.Builder
	err := compareFiles(specPath, paths, &out)
	if err == nil {
		t.Fatal("compare accepted a metric whose spread exceeds its bound")
	}
	lines := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 1 {
			lines[f[1]] = l
		}
	}
	if !strings.Contains(lines["steady"], " ok ") {
		t.Errorf("steady metric not ok:\n%s", out.String())
	}
	if !strings.Contains(lines["noisy"], "unresolved") {
		t.Errorf("noisy metric not unresolved:\n%s", out.String())
	}
	if err := compareFiles(specPath, paths[:1], &out); err == nil {
		t.Error("compare of one file accepted")
	}
}

// TestMixCacheShape replays the owld-mix request order through an LRU of
// the Manager's size: with each request completing before the next, the
// repeats and only the repeats hit.
func TestMixCacheShape(t *testing.T) {
	var mix *workload
	for _, w := range workloads {
		if w.service {
			mix = w
		}
	}
	pool := mix.pool(7, false)
	if len(pool) < mixCacheSize+6 {
		t.Fatalf("pool of %d cannot keep fresh requests out of a cache of %d", len(pool), mixCacheSize)
	}
	var lru []string // most recent last
	for i := 0; i < 400; i++ {
		c, repeat := mixRequest(pool, i)
		key := c.key()
		hit := false
		for j, k := range lru {
			if k == key {
				hit = true
				lru = append(lru[:j], lru[j+1:]...)
				break
			}
		}
		lru = append(lru, key)
		if len(lru) > mixCacheSize {
			lru = lru[1:]
		}
		if hit != repeat {
			t.Fatalf("request %d (%s): hit %v, repeat %v", i, key, hit, repeat)
		}
	}
}
