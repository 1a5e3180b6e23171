package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPromWriterRendersValidText(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Header("owld_jobs", "Jobs by lifecycle state.", "gauge")
	p.Sample("owld_jobs", 3, "state", "queued")
	p.Sample("owld_jobs", 1, "state", "running")
	p.Header("owld_cache_hits_total", "Result-cache hits.", "counter")
	p.Sample("owld_cache_hits_total", 17)
	var agg DurationAgg
	agg.observe(500 * time.Microsecond)
	agg.observe(3 * time.Millisecond)
	agg.observe(20 * time.Minute)
	p.Header("owl_span_duration_ms", "Span latency.", "histogram")
	p.Histogram("owl_span_duration_ms", agg, "span", "phase.record")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePromText(buf.Bytes()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP owld_jobs Jobs by lifecycle state.",
		"# TYPE owld_jobs gauge",
		`owld_jobs{state="queued"} 3`,
		`owl_span_duration_ms_bucket{span="phase.record",le="1"} 1`,
		`owl_span_duration_ms_bucket{span="phase.record",le="4"} 2`,
		`owl_span_duration_ms_bucket{span="phase.record",le="524288"} 2`,
		`owl_span_duration_ms_bucket{span="phase.record",le="+Inf"} 3`,
		`owl_span_duration_ms_sum{span="phase.record"} 1.2000035e+06`,
		`owl_span_duration_ms_count{span="phase.record"} 3`,
		"owld_cache_hits_total 17",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPromLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Sample("m", 1, "k", "a\"b\\c\nd")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `m{k="a\"b\\c\nd"} 1` + "\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
	if err := ValidatePromText(buf.Bytes()); err != nil {
		t.Fatalf("escaped sample invalid: %v", err)
	}
}

func TestPromInfinity(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Sample("m", math.Inf(1))
	if got := buf.String(); got != "m +Inf\n" {
		t.Errorf("got %q", got)
	}
	if err := ValidatePromText(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestPromOddLabelsError(t *testing.T) {
	p := NewPromWriter(&bytes.Buffer{})
	p.Sample("m", 1, "dangling")
	if p.Err() == nil {
		t.Fatal("odd label list accepted")
	}
}

func TestValidatePromTextRejects(t *testing.T) {
	cases := map[string]string{
		"bare comment":   "# something\nm 1\n",
		"malformed line": "not a metric line!\n",
		"no samples":     "# HELP m x\n# TYPE m gauge\n",
		"bad label":      `m{k=unquoted} 1` + "\n",
	}
	for name, body := range cases {
		if err := ValidatePromText([]byte(body)); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
}
