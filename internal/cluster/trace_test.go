package cluster

import (
	"bytes"
	"context"
	"testing"

	"owl/internal/core"
	"owl/internal/obs"
	"owl/internal/workloads/gpucrypto"
)

// detectFleetTraced runs a fleet detection under a flight recorder and
// returns the report plus the recorder.
func detectFleetTraced(t *testing.T, fleet *Fleet) (*core.Report, *obs.Recorder) {
	t.Helper()
	opts := detectOpts()
	opts.Runner = fleet.Runner(RunnerConfig{})
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 14)
	ctx := obs.WithRecorder(context.Background(), rec)
	prog := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	rep, err := det.DetectContext(ctx, prog, [][]byte{keyA, keyB}, gpucrypto.KeyGen())
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec
}

var (
	keyA = bytes.Repeat([]byte{0x11}, 16)
	keyB = bytes.Repeat([]byte{0x22}, 16)
)

// TestFleetTracePropagation runs a traced detection over two in-process
// workers and checks the tentpole invariants end to end: worker-side
// spans come home, land as children of the dispatch spans that carried
// their batches, are stamped with the originating worker, and the merged
// timeline exports as a valid multi-process Chrome trace. Each run's
// wire encoding (worker side) and decoding (coordinator side) shows as
// its own span under the dispatch.
func TestFleetTracePropagation(t *testing.T) {
	fleet, servers := startWorkers(t, 2, Options{BatchSize: 4})
	_, rec := detectFleetTraced(t, fleet)

	spans, counters := rec.Snapshot()
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	count := make(map[string]int)
	procs := make(map[string]bool)
	for _, s := range spans {
		count[s.Name]++
		switch s.Name {
		case "cluster.dispatch", "wire.decode":
			if s.Proc != "" {
				t.Fatalf("%s span stamped with remote proc %q", s.Name, s.Proc)
			}
		case "run", "wire.encode":
			if s.Proc == "" {
				t.Fatalf("%s span missing its originating process", s.Name)
			}
			procs[s.Proc] = true
		default:
			continue
		}
		if s.Name == "cluster.dispatch" {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s parent %d not in the timeline", s.Name, s.Parent)
		}
		if parent.Name != "cluster.dispatch" {
			t.Fatalf("%s parented under %q, want cluster.dispatch", s.Name, parent.Name)
		}
		if s.Start < parent.Start {
			t.Fatalf("%s starts at %v, before its dispatch at %v (clock normalization)", s.Name, s.Start, parent.Start)
		}
	}
	for _, name := range []string{"cluster.dispatch", "run", "wire.encode", "wire.decode"} {
		if count[name] == 0 {
			t.Fatalf("no %s spans in the fleet timeline", name)
		}
	}
	if len(procs) != len(servers) {
		t.Fatalf("worker spans from %d process(es), want %d", len(procs), len(servers))
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans, counters); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("merged fleet trace invalid: %v", err)
	}
	events, err := obs.DecodeChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pids := make(map[int]bool)
	for _, ev := range events {
		if ev.Ph == "B" {
			pids[ev.PID] = true
		}
	}
	if len(pids) < 3 {
		t.Fatalf("export spans %d pids, want >= 3 (coordinator + 2 workers)", len(pids))
	}
}

// TestFleetUntracedShipsNoSpans proves the disabled path stays disabled
// across the wire: without a recorder in the context, batches carry no
// trace context and results come home without span payloads.
func TestFleetUntracedShipsNoSpans(t *testing.T) {
	fleet, _ := startWorkers(t, 2, Options{BatchSize: 4})
	rep := detectFleet(t, fleet, detectOpts(), gpucrypto.NewAES(gpucrypto.WithBlocks(16)),
		[][]byte{keyA, keyB}, gpucrypto.KeyGen(), nil)
	if rep == nil {
		t.Fatal("no report")
	}
	// The coordinator merges nothing: its recorder does not exist. The
	// strongest observable guarantee is at the protocol layer, covered by
	// handleRecord only building a recorder when br.Trace != nil; here we
	// assert the detection still serializes identically to the sequential
	// reference, i.e. tracing never perturbed results.
	seq := detectSequential(t, detectOpts(), gpucrypto.NewAES(gpucrypto.WithBlocks(16)),
		[][]byte{keyA, keyB}, gpucrypto.KeyGen())
	if !bytes.Equal(reportJSON(t, rep), reportJSON(t, seq)) {
		t.Fatal("untraced fleet report diverges from sequential reference")
	}
}

// TestFleetTracedReportMatchesUntraced locks in that attaching a flight
// recorder changes only observability, never results.
func TestFleetTracedReportMatchesUntraced(t *testing.T) {
	fleet, _ := startWorkers(t, 2, Options{BatchSize: 4})
	traced, _ := detectFleetTraced(t, fleet)
	fleet2, _ := startWorkers(t, 2, Options{BatchSize: 4})
	plain := detectFleet(t, fleet2, detectOpts(), gpucrypto.NewAES(gpucrypto.WithBlocks(16)),
		[][]byte{keyA, keyB}, gpucrypto.KeyGen(), nil)
	if !bytes.Equal(reportJSON(t, traced), reportJSON(t, plain)) {
		t.Fatal("traced fleet report diverges from untraced fleet report")
	}
}
