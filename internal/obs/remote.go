// Distributed tracing support: a serializable span identity that crosses
// process boundaries (SpanContext), plus the machinery for shipping a
// remote recorder's spans home and merging them into the coordinator's
// timeline (Drain / MergeRemote).
//
// Each side keeps its own monotonic clock: a worker records spans as
// offsets from its per-batch recorder epoch, and the coordinator
// normalizes them at merge time by shifting every remote offset onto the
// start of the dispatch span that carried the batch (MergeOptions.Shift).
// Remote span IDs are remapped through a deterministic hash of
// (process, parent span, original ID) so that merging the same wire
// results in any arrival order yields the same timeline, and so remote
// IDs can never collide with the coordinator's sequential local IDs.
package obs

import (
	"context"
	"time"
)

// SpanContext is the serializable identity of a span, carried across
// process boundaries in the cluster wire protocol so remote work is
// recorded as children of the coordinator's dispatch span.
type SpanContext struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
}

// ContextSpan returns the identity of the span carried by ctx, if any.
func ContextSpan(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	ref, ok := ctx.Value(spanKey).(spanRef)
	if !ok {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: ref.trace, SpanID: ref.id}, true
}

// WithSpanContext returns a context under which new spans are children
// of sc — a span that completed (or lives) in another process. Combined
// with WithRecorder this is how a worker roots its batch spans under the
// coordinator's dispatch span: the worker records locally, ships the
// records home, and the coordinator merges them with MergeRemote.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey, spanRef{id: sc.SpanID, trace: sc.TraceID})
}

// SeedSpanIDs advances the recorder's span-ID allocator to at least
// base. A worker seeds its per-batch recorder with RemoteIDBase so a
// worker-local parent ID can never be numerically confused with the
// coordinator-side span the batch is rooted under (whose IDs are small
// sequentials) — MergeRemote relies on that disjointness to tell
// "parented under the shipped SpanContext" apart from "parented under
// another span in this batch".
func (r *Recorder) SeedSpanIDs(base uint64) {
	for {
		cur := r.ids.Load()
		if cur >= base || r.ids.CompareAndSwap(cur, base) {
			return
		}
	}
}

// RemoteIDBase is the span-ID floor for recorders whose spans will be
// shipped across the wire.
const RemoteIDBase = 1 << 32

// Drain snapshots and clears the recorder's span and counter rings,
// oldest first. Duration aggregates are retained. Used by workers to
// ship each batch's spans exactly once.
func (r *Recorder) Drain() ([]SpanRecord, []CounterRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans, counters := r.snapshotLocked(0)
	r.spans = r.spans[:0]
	r.spanNext = 0
	r.counters = r.counters[:0]
	r.ctrNext = 0
	return spans, counters
}

// MergeOptions direct how a batch of remote records is grafted into a
// local recorder.
type MergeOptions struct {
	// Trace is the local trace the remote spans are filed under
	// (typically the dispatch span's TraceID).
	Trace uint64
	// Parent is the local span remote root spans (Parent == 0 on the
	// wire) attach to. Remote spans already parented under the shipped
	// SpanContext keep that linkage.
	Parent uint64
	// Shift maps the remote recorder's epoch onto this recorder's
	// monotonic clock: every remote offset is advanced by Shift.
	// Typically the dispatch span's StartOffset, which normalizes
	// clock skew to "the batch began when we dispatched it".
	Shift time.Duration
	// Proc names the originating process (worker address); it becomes
	// a separate process track in the Chrome export.
	Proc string
}

// remapID deterministically rewrites a remote span ID into the local ID
// space: FNV-1a over (proc, parent, original ID), with the high bit set
// so remapped IDs never collide with the recorder's small sequential
// local IDs. Including the parent (the coordinator-side dispatch span)
// disambiguates batches whose per-batch recorders both start numbering
// at 1; determinism is what makes merge order irrelevant to the final
// timeline.
func remapID(proc string, parent, id uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(proc); i++ {
		h ^= uint64(proc[i])
		h *= prime64
	}
	for _, v := range [2]uint64{parent, id} {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	return h | 1<<63
}

// MergeRemote grafts spans and counters recorded by a remote process
// into this recorder: IDs are deterministically remapped, root spans are
// re-parented under opts.Parent, offsets are shifted by opts.Shift, and
// every record is stamped with opts.Proc. Records land in the ring in
// slice order; duration aggregates absorb the remote spans so metrics
// cover fleet-wide work.
func (r *Recorder) MergeRemote(spans []SpanRecord, counters []CounterRecord, opts MergeOptions) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range spans {
		s.ID = remapID(opts.Proc, opts.Parent, s.ID)
		if s.Parent == 0 || s.Parent == opts.Parent {
			s.Parent = opts.Parent
		} else {
			s.Parent = remapID(opts.Proc, opts.Parent, s.Parent)
		}
		s.Trace = opts.Trace
		s.Proc = opts.Proc
		s.Start += opts.Shift
		s.End += opts.Shift
		if len(r.spans) < cap(r.spans) {
			r.spans = append(r.spans, s)
		} else {
			r.spans[r.spanNext] = s
			r.spanNext = (r.spanNext + 1) % cap(r.spans)
			r.dropped++
		}
		r.observeLocked(s.Name, s.End-s.Start)
	}
	for _, c := range counters {
		c.Trace = opts.Trace
		c.Proc = opts.Proc
		c.TS += opts.Shift
		if len(r.counters) < cap(r.counters) {
			r.counters = append(r.counters, c)
		} else {
			r.counters[r.ctrNext] = c
			r.ctrNext = (r.ctrNext + 1) % cap(r.counters)
		}
	}
}
