// Prometheus text exposition (format version 0.0.4) without a client
// library: a small writer that renders # HELP / # TYPE headers, samples
// with escaped labels and span-duration histograms, plus the line-level
// validator the handler tests run over scraped output.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// PromWriter renders metrics in the Prometheus text exposition format.
// Errors are sticky: the first write failure is retained and returned by
// Err, so call sites can render unconditionally and check once.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header emits the # HELP and # TYPE lines for a metric family. typ is
// one of counter, gauge, histogram, summary, untyped.
func (p *PromWriter) Header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one sample line. labels are alternating key, value pairs.
func (p *PromWriter) Sample(name string, value float64, labels ...string) {
	if len(labels)%2 != 0 {
		p.err = fmt.Errorf("obs: odd label list for %s", name)
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(labels[i])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(labels[i+1]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	p.printf("%s %s\n", sb.String(), formatValue(value))
}

// Histogram emits one series of a histogram family from a span duration
// aggregate: a _bucket sample per le bound (cumulative, in milliseconds),
// then _sum (milliseconds) and _count. labels are alternating key, value
// pairs; le is appended to them on the bucket lines.
func (p *PromWriter) Histogram(name string, agg DurationAgg, labels ...string) {
	le := append(labels[:len(labels):len(labels)], "le", "")
	for i, n := range agg.cumulative() {
		le[len(le)-1] = formatValue(bucketUpperMS(i))
		p.Sample(name+"_bucket", float64(n), le...)
	}
	p.Sample(name+"_sum", float64(agg.Sum)/float64(time.Millisecond), labels...)
	p.Sample(name+"_count", float64(agg.Count), labels...)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value; infinities use the +Inf/-Inf forms
// histogram le labels and samples share.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSampleRE matches one exposition sample line: a metric name, an
// optional label set, a value, and an optional timestamp.
var promSampleRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(NaN|[+-]?Inf|[-+0-9.eE]+)( [0-9]+)?$`)

// ValidatePromText checks that every non-empty line of a text exposition
// body is a # HELP comment, a # TYPE comment, or a well-formed sample.
func ValidatePromText(data []byte) error {
	lines := strings.Split(string(data), "\n")
	samples := 0
	for n, line := range lines {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("obs: line %d: comment is neither HELP nor TYPE: %q", n+1, line)
		}
		if !promSampleRE.MatchString(line) {
			return fmt.Errorf("obs: line %d: malformed sample %q", n+1, line)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("obs: exposition contains no samples")
	}
	return nil
}
