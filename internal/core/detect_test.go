package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/obs"
	"owl/internal/workloads/dummy"
	"owl/internal/workloads/mlp"
)

func testOptions() Options {
	o := DefaultOptions()
	o.FixedRuns = 20
	o.RandomRuns = 20
	return o
}

func TestDetectDummyDataFlowLeak(t *testing.T) {
	d, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := dummy.New()
	inputs := [][]byte{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{9, 8, 7, 6, 5, 4, 3, 2},
	}
	rep, err := d.Detect(p, inputs, dummy.Gen(8))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PotentialLeak {
		t.Fatalf("expected potential leak, got none:\n%s", rep.Summary())
	}
	if rep.Count(DataFlowLeak) == 0 {
		t.Errorf("expected a data-flow leak at the s-box lookup:\n%s", rep.Summary())
	}
	if rep.Count(KernelLeak) != 0 {
		t.Errorf("unexpected kernel leaks:\n%s", rep.Summary())
	}
	if rep.Count(ControlFlowLeak) != 0 {
		t.Errorf("unexpected control-flow leaks:\n%s", rep.Summary())
	}
}

func TestDetectDummyIdenticalInputsAreLeakFree(t *testing.T) {
	d, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := dummy.New()
	in := []byte{1, 2, 3, 4}
	rep, err := d.Detect(p, [][]byte{in, in, in}, dummy.Gen(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PotentialLeak {
		t.Fatalf("identical inputs must class together and skip analysis:\n%s", rep.Summary())
	}
	if rep.Classes != 1 {
		t.Errorf("Classes = %d, want 1", rep.Classes)
	}
}

func TestClassifyGroupsByTrace(t *testing.T) {
	d, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := dummy.New()
	classes, err := d.Classify(p, [][]byte{
		{1, 1}, {1, 1}, {2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2", len(classes))
	}
	if classes[0].Members != 2 {
		t.Errorf("first class has %d members, want 2", classes[0].Members)
	}
}

func TestDetectDeterministic(t *testing.T) {
	run := func() *Report {
		d, err := NewDetector(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Detect(dummy.New(), [][]byte{{1, 2}, {3, 4}}, dummy.Gen(2))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Leaks) != len(b.Leaks) {
		t.Fatalf("non-deterministic leak counts: %d vs %d", len(a.Leaks), len(b.Leaks))
	}
	for i := range a.Leaks {
		if a.Leaks[i].Location() != b.Leaks[i].Location() {
			t.Errorf("leak %d differs: %s vs %s", i, a.Leaks[i].Location(), b.Leaks[i].Location())
		}
	}
}

func TestRecordOnceTraceShape(t *testing.T) {
	d, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.RecordOnce(dummy.New(), []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Invocations) != 1 {
		t.Fatalf("got %d invocations, want 1", len(tr.Invocations))
	}
	inv := tr.Invocations[0]
	if inv.Kernel != "sbox_lookup" {
		t.Errorf("kernel = %q", inv.Kernel)
	}
	if inv.StackID != "main/dummy_main/sbox_lookup" {
		t.Errorf("stack id = %q", inv.StackID)
	}
	if len(tr.Allocs) != 3 {
		t.Errorf("got %d allocs, want 3", len(tr.Allocs))
	}
	if inv.Graph.Warps == 0 || len(inv.Graph.Nodes) == 0 {
		t.Errorf("empty graph: %v", inv.Graph)
	}
}

func TestEvidenceAddRunPadding(t *testing.T) {
	d, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := dummy.New()
	ev := evidence.NewDiff(3)
	for i := 0; i < 3; i++ {
		tr, err := d.RecordOnce(p, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ev.AddRun(tr)
	}
	if ev.Runs != 3 {
		t.Fatalf("Runs = %d", ev.Runs)
	}
	for _, inv := range ev.Invs {
		if p := inv.Presence.AppendTo(nil); len(p) != 3 {
			t.Errorf("presence length %d, want 3", len(p))
		}
		for b, blk := range inv.Sites {
			for _, p := range blk.Pairs {
				if xs := p.Rec.AppendTo(nil); len(xs) != 3 {
					t.Errorf("block %d pair %v: %d samples, want 3", b, p.Pair, len(xs))
				}
			}
		}
	}
}

func TestNewDetectorValidation(t *testing.T) {
	bad := testOptions()
	bad.FixedRuns = 1
	if _, err := NewDetector(bad); err == nil {
		t.Error("FixedRuns=1 accepted")
	}
	bad = testOptions()
	bad.Confidence = 1.5
	if _, err := NewDetector(bad); err == nil {
		t.Error("Confidence=1.5 accepted")
	}
}

func TestDetectRequiresInputsAndGen(t *testing.T) {
	d, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Detect(dummy.New(), nil, dummy.Gen(2)); err == nil {
		t.Error("empty inputs accepted")
	}
	if _, err := d.Detect(dummy.New(), [][]byte{{1}}, nil); err == nil {
		t.Error("nil gen accepted")
	}
}

func BenchmarkRecordOnce(b *testing.B) {
	d, err := NewDetector(testOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := dummy.New()
	in := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.RecordOnce(p, in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDetectMLPArchitectureLeak covers the model-extraction scenario the
// paper motivates (§III-A): the secret is the network architecture, and
// Owl reports the architecture-dependent launch sequence as kernel leaks.
func TestDetectMLPArchitectureLeak(t *testing.T) {
	o := testOptions()
	o.FixedRuns, o.RandomRuns = 10, 10
	d, err := NewDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	p := mlp.New(nil)
	rep, err := d.Detect(p, [][]byte{
		{0, 0, 0},                   // 1 hidden layer
		{3, 0, 1, 1, 0, 2, 1, 3, 0}, // 4 hidden layers
	}, mlp.Gen())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classes != 2 {
		t.Errorf("classes = %d, want 2 (architectures differ)", rep.Classes)
	}
	if rep.Count(KernelLeak) == 0 {
		t.Errorf("no kernel leaks for architecture-dependent launches:\n%s", rep.Summary())
	}
}

// TestMoreInputsMoreCoverage exercises §VI's note that extra initial
// inputs raise path coverage: an input that exercises a second trace
// class only surfaces when supplied.
func TestMoreInputsMoreCoverage(t *testing.T) {
	d, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := mlp.New(nil)
	few, err := d.Classify(p, [][]byte{{0, 0, 0}, {0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	more, err := d2.Classify(p, [][]byte{{0, 0, 0}, {0, 0, 1}, {1, 0, 0}, {3, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(more) <= len(few) {
		t.Errorf("extra inputs found no new classes: %d -> %d", len(few), len(more))
	}
}

// failingProgram errors after some host activity.
type failingProgram struct{ calls int }

func (p *failingProgram) Name() string { return "failing" }

func (p *failingProgram) Run(ctx *cuda.Context, input []byte) error {
	p.calls++
	if _, err := ctx.Malloc(4); err != nil {
		return err
	}
	return errInjected
}

var errInjected = errors.New("injected failure")

func TestDetectPropagatesProgramErrors(t *testing.T) {
	d, err := NewDetector(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Detect(&failingProgram{}, [][]byte{{1}}, dummy.Gen(1))
	if err == nil {
		t.Fatal("program error swallowed")
	}
	if !errors.Is(err, errInjected) {
		t.Errorf("error chain lost: %v", err)
	}
	if _, err := d.RecordOnce(&failingProgram{}, []byte{1}); !errors.Is(err, errInjected) {
		t.Errorf("RecordOnce error chain lost: %v", err)
	}
}

// TestParallelCollectionIsDeterministic: Workers > 1 must produce the
// exact sequential report (inputs and seeds are pre-drawn in order).
func TestParallelCollectionIsDeterministic(t *testing.T) {
	run := func(workers int) *Report {
		o := testOptions()
		o.Workers = workers
		d, err := NewDetector(o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Detect(dummy.New(), [][]byte{{1, 2}, {3, 4}}, dummy.Gen(2))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(0)
	par := run(4)
	if len(seq.Leaks) != len(par.Leaks) {
		t.Fatalf("leak counts differ: %d vs %d", len(seq.Leaks), len(par.Leaks))
	}
	for i := range seq.Leaks {
		a, b := seq.Leaks[i], par.Leaks[i]
		if a.Location() != b.Location() || a.P != b.P || a.D != b.D {
			t.Errorf("leak %d differs: %s(p=%v) vs %s(p=%v)",
				i, a.Location(), a.P, b.Location(), b.P)
		}
	}
}

// TestOnProgressPhaseOrdering: a single-input detection walks the pipeline
// exactly once, so the deduplicated phase sequence observed through
// Options.OnProgress must be classify -> record -> analyze, regardless of
// recording parallelism. Guards both the callback ordering and the phase
// transition points in DetectContext/analyzeClass.
func TestOnProgressPhaseOrdering(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var (
			mu     sync.Mutex
			phases []string
		)
		o := testOptions()
		o.Workers = workers
		o.OnProgress = func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			// Deduplicate consecutive observations: recording workers report
			// per-run progress concurrently within one phase.
			if len(phases) == 0 || phases[len(phases)-1] != p.Phase {
				phases = append(phases, p.Phase)
			}
		}
		d, err := NewDetector(o)
		if err != nil {
			t.Fatal(err)
		}
		// One input means one class: classification cannot take the
		// leakage-free early return, and analysis runs exactly once.
		if _, err := d.Detect(dummy.New(), [][]byte{{1, 2, 3, 4}}, dummy.Gen(4)); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := append([]string(nil), phases...)
		mu.Unlock()
		want := []string{PhaseClassify, PhaseRecord, PhaseAnalyze}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: phase sequence %v, want %v", workers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: phase sequence %v, want %v", workers, got, want)
			}
		}
	}
}

// TestCostRunRecordsSiteCounter checks a cost-on run's telemetry: the
// cost observables fold inside the run, so the run records the
// microarch_cost_sites counter and no span of their own.
func TestCostRunRecordsSiteCounter(t *testing.T) {
	opts := testOptions()
	opts.Evidence = EvidenceConfig{Mode: EvidenceBoth, Channels: []string{ChannelADCFG, ChannelCost}}
	d, err := NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 10)
	ctx := obs.WithRecorder(context.Background(), rec)
	tr, err := d.recipe.Record(ctx, dummy.New(), []byte{1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, inv := range tr.Invocations {
		want += len(inv.Cost)
	}
	if want == 0 {
		t.Fatal("run recorded no cost sites; test is vacuous")
	}
	spans, counters := rec.Snapshot()
	runs := 0
	for _, s := range spans {
		switch s.Name {
		case "run":
			runs++
		case "microarch.cost":
			t.Error("cost-on run recorded a microarch.cost span")
		}
	}
	if runs != 1 {
		t.Errorf("run spans = %d, want 1", runs)
	}
	var got []float64
	for _, c := range counters {
		if c.Name == "microarch_cost_sites" {
			got = append(got, c.Value)
		}
	}
	if len(got) != 1 || got[0] != float64(want) {
		t.Errorf("microarch_cost_sites counters = %v, want [%d]", got, want)
	}
}

// TestDiffLoopTraced runs the recording loop in diff mode with a recorder
// attached and OnEvidence set. Neither may change the report or the
// chunking: the statistical channel is off, so each regime records as one
// chunk and no evidence sample is emitted. The evidence_runs counter
// counts both regimes of a class, so its last sample per class is the
// whole budget.
func TestDiffLoopTraced(t *testing.T) {
	inputs := [][]byte{{1, 2}, {3, 4}}
	detect := func(ctx context.Context, onEvidence func(EvidenceSample)) *Report {
		o := testOptions()
		o.OnEvidence = onEvidence
		d, err := NewDetector(o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.DetectContext(ctx, dummy.New(), inputs, dummy.Gen(2))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	canonical := func(rep *Report) string {
		r := *rep
		r.Stats.TraceCollectTime, r.Stats.EvidenceTime, r.Stats.TestTime = 0, 0, 0
		r.Stats.Total, r.Stats.PeakAllocBytes = 0, 0
		b, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	rec := obs.NewRecorder(0)
	samples := 0
	traced := detect(obs.WithRecorder(context.Background(), rec), func(EvidenceSample) { samples++ })
	if got, want := canonical(traced), canonical(detect(context.Background(), nil)); got != want {
		t.Errorf("traced report differs from untraced:\n got %s\nwant %s", got, want)
	}
	if traced.Classes < 2 {
		t.Fatalf("%d classes; the test needs at least 2", traced.Classes)
	}
	if samples != 0 {
		t.Errorf("diff mode emitted %d evidence samples", samples)
	}

	spans, counters := rec.Snapshot()
	children := func(parent uint64, name string) []obs.SpanRecord {
		var out []obs.SpanRecord
		for _, s := range spans {
			if s.Parent == parent && s.Name == name {
				out = append(out, s)
			}
		}
		return out
	}
	opts := testOptions()
	budget := float64(opts.FixedRuns + opts.RandomRuns)
	classes := 0
	for _, cls := range spans {
		if cls.Name != "class" {
			continue
		}
		classes++
		record := children(cls.ID, "phase.record")
		if len(record) != 1 {
			t.Fatalf("class %d: %d phase.record spans", cls.ID, len(record))
		}
		for name, runs := range map[string]int{"record.fixed": opts.FixedRuns, "record.random": opts.RandomRuns} {
			chunks := children(record[0].ID, name)
			if len(chunks) != 1 {
				t.Errorf("class %d: %d %s chunks, want 1", cls.ID, len(chunks), name)
				continue
			}
			for _, a := range chunks[0].AttrList() {
				if a.Key == "runs" && a.Num != int64(runs) {
					t.Errorf("class %d: %s runs = %d, want %d", cls.ID, name, a.Num, runs)
				}
			}
		}
		last := -1.0
		for _, c := range counters {
			if c.Name == "evidence_runs" && c.TS >= cls.Start && c.TS <= cls.End {
				last = c.Value
			}
		}
		if last != budget {
			t.Errorf("class %d: last evidence_runs = %v, want %v", cls.ID, last, budget)
		}
	}
	if classes != traced.Classes {
		t.Errorf("%d class spans for %d classes", classes, traced.Classes)
	}
}
