package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile, so
// that no percentile rests on a handful of samples: a median needs 20
// samples and p75 needs 40.
const minBeyond = 10

// samplesFor returns the fewest samples percentile accepts for pct.
func samplesFor(pct int) int {
	for n := 1; ; n++ {
		if n-rank(n, pct) >= minBeyond {
			return n
		}
	}
}

// rank is the 1-based nearest-rank position of the pct-th percentile
// among n sorted samples.
func rank(n, pct int) int { return (pct*n + 99) / 100 }

// percentile returns the nearest-rank pct-th percentile of xs, or an
// error when fewer than minBeyond samples lie above it.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	r := rank(n, pct)
	if n == 0 || n-r < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples leaves %d beyond it; need %d samples",
			pct, n, max(n-r, 0), samplesFor(pct))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[r-1], nil
}

// median is the plain middle of a few values, such as the repeated
// set-up times of one run.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("mean of no samples")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4), the method the
// repeatability check is defined with.
func quartiles(xs []float64) (q1, med, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is one workload run: the last line owlperf prints.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// encodeOutcome renders o as one JSON line. Every value must be finite:
// a NaN or an infinity is a measurement bug, and naming the metric beats
// the bare "unsupported value" encoding/json reports.
func encodeOutcome(o Outcome) ([]byte, error) {
	for name, m := range o.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v, not a finite number", name, m.Value)
		}
	}
	return json.Marshal(o)
}

// RunResult is one workload run as stored in a result file.
type RunResult struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Outcome
}

// ResultFile is what -out writes and -compare reads.
type ResultFile struct {
	Header Header      `json:"header"`
	Runs   []RunResult `json:"runs"`
}

// benchSpec is the part of BENCHMARK.json that -compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles reports, for each (workload, end-to-end metric) across the
// result files, the median, the quartiles and their spread as a share of
// the median. A spread above the metric's bound from the spec makes the
// metric unresolved: the benchmark cannot tell a change of that size from
// run-to-run noise. It returns an error when any metric is unresolved.
func compareFiles(specPath string, paths []string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	values := map[string][]float64{} // workload + "\x00" + metric
	var order []string
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var f ResultFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Runs {
			if r.Trace != 0 {
				continue
			}
			for _, e := range spec.EndToEnd {
				m, ok := r.Metrics[e.Name]
				if !ok {
					return fmt.Errorf("%s: workload %s has no metric %s", p, r.Workload, e.Name)
				}
				k := r.Workload + "\x00" + e.Name
				if _, seen := values[k]; !seen {
					order = append(order, k)
				}
				values[k] = append(values[k], m.Value)
			}
		}
	}
	if len(order) == 0 {
		return errors.New("no end-to-end results in the given files")
	}
	bounds := map[string]float64{}
	units := map[string]string{}
	for _, e := range spec.EndToEnd {
		bounds[e.Name], units[e.Name] = e.Bound, e.Unit
	}
	unresolved := 0
	fmt.Fprintf(w, "%-10s %-18s %3s %12s %12s %12s %7s %6s  %s\n",
		"workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, k := range order {
		wl, name, _ := strings.Cut(k, "\x00")
		q1, med, q3, err := quartiles(values[k])
		if err != nil {
			return fmt.Errorf("%s %s: %w", wl, name, err)
		}
		spread := (q3 - q1) / med
		verdict := "ok"
		if spread > bounds[name] {
			verdict = "unresolved"
			unresolved++
		}
		fmt.Fprintf(w, "%-10s %-18s %3d %12.4f %12.4f %12.4f %6.1f%% %5.0f%%  %s (%s)\n",
			wl, name, len(values[k]), q1, med, q3, 100*spread, 100*bounds[name], verdict, units[name])
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric(s) spread wider than their bound", unresolved)
	}
	return nil
}
