package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledPathIsNil(t *testing.T) {
	ctx := context.Background()
	got, sp := Start(ctx, "x")
	if sp != nil {
		t.Fatal("span started without a recorder")
	}
	if got != ctx {
		t.Fatal("disabled Start derived a new context")
	}
	// nil-safety: none of these may panic.
	sp.SetStr("k", "v")
	sp.SetInt("k", 1)
	sp.SetFloat("k", 1.5)
	if sp.TraceID() != 0 {
		t.Fatal("nil span has a trace ID")
	}
	sp.End()
	Counter(ctx, "c", 1)
	var nilCtx context.Context
	if _, sp := Start(nilCtx, "x"); sp != nil {
		t.Fatal("span started from a nil context")
	}
	Counter(nilCtx, "c", 1)
}

func TestDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	if avg := testing.AllocsPerRun(100, func() {
		_, sp := Start(ctx, "x")
		sp.SetInt("k", 1)
		sp.End()
		Counter(ctx, "c", 1)
	}); avg != 0 {
		t.Fatalf("disabled path allocates: %.1f allocs/op", avg)
	}
}

func TestSpanLinkage(t *testing.T) {
	rec := NewRecorder(64)
	ctx := WithRecorder(context.Background(), rec)

	rctx, root := Start(ctx, "root")
	root.SetStr("job", "j000001")
	cctx, child := Start(rctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	trace := root.TraceID()
	if trace == 0 {
		t.Fatal("root span has no trace ID")
	}
	root.End()

	// A second root opens a fresh trace.
	_, other := Start(ctx, "other")
	otherTrace := other.TraceID()
	other.End()
	if otherTrace == trace {
		t.Fatal("independent roots share a trace ID")
	}

	spans, _ := rec.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Error("child not parented to root")
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Error("grandchild not parented to child")
	}
	for _, name := range []string{"root", "child", "grandchild"} {
		if byName[name].Trace != trace {
			t.Errorf("%s not in root's trace", name)
		}
	}
	if byName["other"].Trace != otherTrace {
		t.Error("other root lost its own trace")
	}
	rootRec := byName["root"]
	if got := rootRec.AttrList(); len(got) != 1 || got[0].Key != "job" || got[0].Str != "j000001" {
		t.Errorf("root attrs = %+v", got)
	}

	gotSpans, _ := rec.SnapshotTrace(trace)
	if len(gotSpans) != 3 {
		t.Fatalf("SnapshotTrace returned %d spans, want 3", len(gotSpans))
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	rec := NewRecorder(8)
	ctx := WithRecorder(context.Background(), rec)
	_, sp := Start(ctx, "s")
	for i := 0; i < maxAttrs+3; i++ {
		sp.SetInt("k", int64(i))
	}
	sp.End()
	spans, _ := rec.Snapshot()
	if n := spans[0].NAttrs; n != maxAttrs {
		t.Fatalf("got %d attrs, want %d", n, maxAttrs)
	}
}

func TestRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, "s")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	spans, _ := rec.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest first, and only the newest four survive.
	for k, s := range spans {
		if want := int64(6 + k); s.Attrs[0].Num != want {
			t.Errorf("slot %d holds span %d, want %d", k, s.Attrs[0].Num, want)
		}
	}
	if rec.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", rec.Dropped())
	}
}

func TestCounters(t *testing.T) {
	rec := NewRecorder(16)
	ctx := WithRecorder(context.Background(), rec)
	rctx, root := Start(ctx, "root")
	Counter(rctx, "heap", 100)
	Counter(rctx, "heap", 200)
	root.End()
	_, counters := rec.SnapshotTrace(root.TraceID())
	if len(counters) != 2 {
		t.Fatalf("got %d counters, want 2", len(counters))
	}
	if counters[0].Value != 100 || counters[1].Value != 200 {
		t.Errorf("counter values %v, %v", counters[0].Value, counters[1].Value)
	}
	if counters[0].TS > counters[1].TS {
		t.Error("counter timestamps out of order")
	}
}

func TestDurationsAggregate(t *testing.T) {
	rec := NewRecorder(16)
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 3; i++ {
		_, sp := Start(ctx, "phase.record")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	aggs := rec.Durations()
	agg, ok := aggs["phase.record"]
	if !ok {
		t.Fatal("no aggregate for phase.record")
	}
	if agg.Count != 3 {
		t.Errorf("Count = %d, want 3", agg.Count)
	}
	if agg.Sum < 3*time.Millisecond {
		t.Errorf("Sum = %v, want >= 3ms", agg.Sum)
	}
}

func TestConcurrentSpans(t *testing.T) {
	rec := NewRecorder(1024)
	ctx := WithRecorder(context.Background(), rec)
	rctx, root := Start(ctx, "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sctx, sp := Start(rctx, "worker")
				Counter(sctx, "progress", float64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	spans, counters := rec.Snapshot()
	if len(spans) != 8*50+1 {
		t.Fatalf("got %d spans, want %d", len(spans), 8*50+1)
	}
	if len(counters) != 8*50 {
		t.Fatalf("got %d counters, want %d", len(counters), 8*50)
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, spans, counters); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Fatalf("concurrent-span timeline invalid: %v", err)
	}
}

// TestHistogramCumulativeBuckets is the regression test for the bucket
// semantics of a span duration aggregate: le counts must be cumulative
// (Prometheus convention), with "+Inf" always present and equal to
// count, and spans grafted in by MergeRemote must land in the same
// buckets as spans recorded locally.
func TestHistogramCumulativeBuckets(t *testing.T) {
	durations := []time.Duration{
		500 * time.Microsecond, // < 1ms
		3 * time.Millisecond,   // < 4ms
		100 * time.Millisecond, // < 128ms
	}
	var agg DurationAgg
	for _, d := range durations {
		agg.observe(d)
	}

	got := agg.String()
	want := `{"count":3,"sum_ms":103.500,"le_ms":{"1":1,"4":2,"128":3,"+Inf":3}}`
	if got != want {
		t.Errorf("DurationAgg.String() = %s\nwant                   %s", got, want)
	}

	// The output stays valid JSON in the historical shape.
	var decoded struct {
		Count int64              `json:"count"`
		SumMS float64            `json:"sum_ms"`
		LeMS  map[string]float64 `json:"le_ms"`
	}
	if err := json.Unmarshal([]byte(got), &decoded); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if decoded.LeMS["+Inf"] != float64(decoded.Count) {
		t.Errorf("+Inf bucket %v != count %d", decoded.LeMS["+Inf"], decoded.Count)
	}

	// Cumulative counts never decrease, and the last equals the count.
	cum := agg.cumulative()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative bucket %d (%d) below bucket %d (%d)", i, cum[i], i-1, cum[i-1])
		}
	}
	if last := cum[len(cum)-1]; last != agg.Count {
		t.Errorf("last cumulative bucket %d != count %d", last, agg.Count)
	}

	var empty DurationAgg
	if got := empty.String(); got != `{"count":0,"sum_ms":0.000,"le_ms":{"+Inf":0}}` {
		t.Errorf("empty aggregate = %s", got)
	}

	// Remote spans of the same durations, shifted onto the local clock,
	// fill the same buckets.
	remote := make([]SpanRecord, len(durations))
	for i, d := range durations {
		start := time.Duration(i) * time.Second
		remote[i] = SpanRecord{ID: uint64(i + 1), Name: "work", Start: start, End: start + d}
	}
	rec := NewRecorder(16)
	rec.MergeRemote(remote, nil, MergeOptions{Trace: 1, Parent: 1, Shift: time.Hour, Proc: "w1"})
	if merged := rec.Durations()["work"]; merged != agg {
		t.Errorf("merged aggregate = %s, want %s", merged, agg)
	}
}
