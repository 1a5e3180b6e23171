// Package obs is Owl's zero-dependency observability layer: context-
// propagated spans over a per-process flight recorder, exportable as a
// Chrome/Perfetto trace-event timeline (chrome.go) or summarized into the
// Prometheus text exposition format (prom.go).
//
// The design center is the detection hot path. A span is live only
// between Start and End, is pooled across uses, and carries its
// attributes in a fixed-size inline array, so the enabled path allocates
// only for context propagation. The disabled path — no Recorder in the
// context — is a nil check: Start returns a nil *Span, and every Span
// method is nil-safe, so instrumented code never branches on whether
// tracing is on. The warp interpreter's zero-alloc steady state is
// preserved because a device without an observability context skips the
// layer entirely.
//
// Span taxonomy and attribute conventions are documented in DESIGN.md §8.
package obs

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type ctxKey int

const (
	recorderKey ctxKey = iota
	spanKey
)

// spanRef is the immutable span identity stored in contexts. Contexts can
// outlive the pooled *Span they descend from, so they carry a value copy
// of the linkage fields rather than the recycled pointer.
type spanRef struct {
	id    uint64
	trace uint64
}

// AttrKind discriminates the value union of an Attr.
type AttrKind uint8

// Attribute value kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrFloat
)

// Attr is one span attribute: a key plus a string, integer, or float
// value. The union layout keeps attribute storage allocation-free.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Num  int64
	Flt  float64
}

// Value returns the attribute's value as an any, for JSON export.
func (a Attr) Value() any {
	switch a.Kind {
	case AttrInt:
		return a.Num
	case AttrFloat:
		return a.Flt
	default:
		return a.Str
	}
}

// maxAttrs bounds the inline attribute storage of a span. Setters beyond
// the bound drop the attribute rather than allocate.
const maxAttrs = 8

// Span is one timed operation. Spans are pooled: a span is valid from
// Start until End and must not be retained or touched afterwards. All
// methods are nil-safe — a nil *Span (tracing disabled) is a no-op.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	trace  uint64
	name   string
	start  time.Duration
	attrs  [maxAttrs]Attr
	nattrs int
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

// WithRecorder returns a context carrying rec; spans started under it are
// collected into rec's flight-recorder ring.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey, rec)
}

// FromContext returns the recorder carried by ctx, or nil.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey).(*Recorder)
	return rec
}

// Start begins a span named name as a child of the span in ctx (if any)
// and returns a derived context carrying the new span. When ctx is nil or
// carries no recorder, Start is the disabled fast path: it returns ctx
// unchanged and a nil span, without allocating.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	rec, _ := ctx.Value(recorderKey).(*Recorder)
	if rec == nil {
		return ctx, nil
	}
	sp := spanPool.Get().(*Span)
	sp.rec = rec
	sp.id = rec.ids.Add(1)
	sp.nattrs = 0
	sp.name = name
	if parent, ok := ctx.Value(spanKey).(spanRef); ok {
		sp.parent = parent.id
		sp.trace = parent.trace
	} else {
		sp.parent = 0
		sp.trace = rec.traces.Add(1)
	}
	sp.start = rec.now()
	return context.WithValue(ctx, spanKey, spanRef{id: sp.id, trace: sp.trace}), sp
}

// TraceID returns the span's trace identity: every span descending from
// the same root shares it. Zero for a nil span.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace
}

// ID returns the span's identity within its recorder. Zero for a nil
// span.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// StartOffset returns the span's start as a monotonic offset from its
// recorder's epoch. Zero for a nil span.
func (s *Span) StartOffset() time.Duration {
	if s == nil {
		return 0
	}
	return s.start
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Kind: AttrString, Str: v}
	s.nattrs++
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Kind: AttrInt, Num: v}
	s.nattrs++
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Kind: AttrFloat, Flt: v}
	s.nattrs++
}

// End completes the span: it is recorded into the recorder's ring and
// returned to the pool. The span must not be used afterwards.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.record(s)
	*s = Span{}
	spanPool.Put(s)
}

// Counter emits one counter sample (a Chrome "C" event) under the trace
// of the span carried by ctx. A no-op when ctx carries no recorder.
func Counter(ctx context.Context, name string, value float64) {
	if ctx == nil {
		return
	}
	rec, _ := ctx.Value(recorderKey).(*Recorder)
	if rec == nil {
		return
	}
	var trace uint64
	if ref, ok := ctx.Value(spanKey).(spanRef); ok {
		trace = ref.trace
	}
	rec.counter(trace, name, value)
}

// Recorder collects completed spans and counter samples into bounded
// flight-recorder rings and keeps running per-span-name duration
// aggregates for metrics export. Safe for concurrent use.
type Recorder struct {
	epoch  time.Time
	ids    atomic.Uint64
	traces atomic.Uint64

	mu       sync.Mutex
	spans    []SpanRecord // ring, capacity fixed at construction
	spanNext int          // next write position once the ring is full
	counters []CounterRecord
	ctrNext  int
	dropped  uint64
	aggs     map[string]*DurationAgg
}

// DefaultCapacity is the flight-recorder ring size when NewRecorder is
// given a non-positive capacity: enough for a full CLI detection (phases,
// classes, per-run spans, kernel launches) at the default run counts.
const DefaultCapacity = 1 << 14

// SpanRecord is one completed span as stored in the recorder ring.
// Timestamps are monotonic offsets from the recorder's epoch. Proc is
// empty for spans recorded by this process and names the originating
// worker for spans merged from a remote recorder (MergeRemote); the
// Chrome export renders each distinct Proc as its own process track.
type SpanRecord struct {
	ID     uint64
	Parent uint64
	Trace  uint64
	Proc   string
	Name   string
	Start  time.Duration
	End    time.Duration
	Attrs  [maxAttrs]Attr
	NAttrs int
}

// AttrList returns the record's attributes as a slice view.
func (r *SpanRecord) AttrList() []Attr { return r.Attrs[:r.NAttrs] }

// CounterRecord is one counter sample. Proc follows the same convention
// as SpanRecord.Proc.
type CounterRecord struct {
	Trace uint64
	Proc  string
	Name  string
	TS    time.Duration
	Value float64
}

// DurationBuckets is the number of latency buckets a DurationAgg keeps:
// bucket i < DurationBuckets-1 counts spans shorter than 2^i ms (1 ms up
// to 2^19 ms ≈ 8.7 min), and the last bucket counts the rest (+Inf).
const DurationBuckets = 21

// DurationAgg accumulates completed-span durations for one span name: a
// count, a sum, and a powers-of-two millisecond latency histogram.
type DurationAgg struct {
	Count   int64
	Sum     time.Duration
	Buckets [DurationBuckets]int64 // per bucket, not cumulative
}

// observe adds one span duration.
func (a *DurationAgg) observe(d time.Duration) {
	a.Count++
	a.Sum += d
	// d < 2^i ms exactly when its whole milliseconds are below 2^i, and
	// bits.Len64 is the least such i.
	ms := max(d/time.Millisecond, 0)
	a.Buckets[min(bits.Len64(uint64(ms)), DurationBuckets-1)]++
}

// bucketUpperMS returns bucket i's upper bound in milliseconds: 2^i, or
// +Inf for the last bucket.
func bucketUpperMS(i int) float64 {
	if i >= DurationBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(1) << i)
}

// cumulative returns the bucket counts in Prometheus le form: element i
// counts the spans under bucketUpperMS(i), so the last equals Count.
func (a DurationAgg) cumulative() [DurationBuckets]int64 {
	cum := a.Buckets
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	return cum
}

// String renders the aggregate as JSON,
// {"count":N,"sum_ms":S,"le_ms":{"1":n,...,"+Inf":n}}, with cumulative
// le counts: le_ms["8"] is how many spans took under 8 ms, and "+Inf"
// always equals count. Buckets that add nothing over their predecessor
// are omitted to keep the expvar endpoint readable; "+Inf" is always
// present.
func (a DurationAgg) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"count":%d,"sum_ms":%.3f,"le_ms":{`, a.Count, float64(a.Sum)/float64(time.Millisecond))
	var prev int64
	for i, n := range a.cumulative() {
		if i == DurationBuckets-1 {
			fmt.Fprintf(&sb, `"+Inf":%d`, n)
		} else if n != prev {
			fmt.Fprintf(&sb, `"%d":%d,`, int64(1)<<i, n)
			prev = n
		}
	}
	sb.WriteString("}}")
	return sb.String()
}

// NewRecorder builds a recorder whose rings hold capacity spans and
// capacity counter samples; capacity <= 0 selects DefaultCapacity. Older
// entries are overwritten once a ring fills (flight-recorder semantics).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		epoch:    time.Now(),
		spans:    make([]SpanRecord, 0, capacity),
		counters: make([]CounterRecord, 0, capacity),
		aggs:     make(map[string]*DurationAgg),
	}
}

// now returns the monotonic offset since the recorder epoch.
func (r *Recorder) now() time.Duration { return time.Since(r.epoch) }

// record stores a completed span, ending it now. Called from Span.End.
// The end time is read under r.mu, so the ring holds spans in End order
// even when writers contend.
func (r *Recorder) record(s *Span) {
	r.mu.Lock()
	end := r.now()
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Trace:  s.trace,
		Name:   s.name,
		Start:  s.start,
		End:    end,
		Attrs:  s.attrs,
		NAttrs: s.nattrs,
	}
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, rec)
	} else {
		r.spans[r.spanNext] = rec
		r.spanNext = (r.spanNext + 1) % cap(r.spans)
		r.dropped++
	}
	r.observeLocked(s.name, end-s.start)
	r.mu.Unlock()
}

// observeLocked adds one completed span to its name's aggregate. Called
// with r.mu held.
func (r *Recorder) observeLocked(name string, d time.Duration) {
	agg := r.aggs[name]
	if agg == nil {
		agg = new(DurationAgg)
		r.aggs[name] = agg
	}
	agg.observe(d)
}

// counter stores one counter sample, stamped under r.mu so the ring
// holds samples in time order.
func (r *Recorder) counter(trace uint64, name string, value float64) {
	r.mu.Lock()
	rec := CounterRecord{Trace: trace, Name: name, TS: r.now(), Value: value}
	if len(r.counters) < cap(r.counters) {
		r.counters = append(r.counters, rec)
	} else {
		r.counters[r.ctrNext] = rec
		r.ctrNext = (r.ctrNext + 1) % cap(r.counters)
	}
	r.mu.Unlock()
}

// Dropped returns how many spans have been evicted from the ring.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot copies the retained spans and counters, oldest first.
func (r *Recorder) Snapshot() ([]SpanRecord, []CounterRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(0)
}

// SnapshotTrace copies the retained spans and counters belonging to one
// trace, oldest first.
func (r *Recorder) SnapshotTrace(trace uint64) ([]SpanRecord, []CounterRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(trace)
}

// snapshotLocked copies ring contents in chronological order; trace 0
// selects everything. Called with r.mu held.
func (r *Recorder) snapshotLocked(trace uint64) ([]SpanRecord, []CounterRecord) {
	spans := make([]SpanRecord, 0, len(r.spans))
	for i := 0; i < len(r.spans); i++ {
		s := &r.spans[(r.spanNext+i)%len(r.spans)]
		if trace == 0 || s.Trace == trace {
			spans = append(spans, *s)
		}
	}
	counters := make([]CounterRecord, 0, len(r.counters))
	for i := 0; i < len(r.counters); i++ {
		c := &r.counters[(r.ctrNext+i)%len(r.counters)]
		if trace == 0 || c.Trace == trace {
			counters = append(counters, *c)
		}
	}
	return spans, counters
}

// Durations snapshots the per-span-name duration aggregates — the
// latency histograms of owld's Prometheus and expvar endpoints.
func (r *Recorder) Durations() map[string]DurationAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]DurationAgg, len(r.aggs))
	for name, agg := range r.aggs {
		out[name] = *agg
	}
	return out
}
