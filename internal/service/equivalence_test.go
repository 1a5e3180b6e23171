package service

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/trace"
	"owl/internal/workloads/gpucrypto"
)

// detectWith runs one full detection with the given runner.
func detectWith(t *testing.T, runner core.Runner, prog cuda.Program, inputs [][]byte, gen cuda.InputGen) *core.Report {
	t.Helper()
	opts := core.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 12, 12
	opts.Seed = 42
	opts.Runner = runner
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := det.Detect(prog, inputs, gen)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestParallelEquivalence proves pool-backed recording at 4 workers
// produces reports identical (modulo timing fields) to sequential
// detection, for both crypto workloads at fixed seeds.
func TestParallelEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		prog   func() cuda.Program
		inputs [][]byte
		gen    cuda.InputGen
	}{
		{
			name:   "libgpucrypto/aes128",
			prog:   func() cuda.Program { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)) },
			inputs: [][]byte{[]byte("0123456789abcdef"), []byte("fedcba9876543210")},
			gen:    gpucrypto.KeyGen(),
		},
		{
			name:   "libgpucrypto/rsa",
			prog:   func() cuda.Program { return gpucrypto.NewRSA(gpucrypto.WithMessages(16)) },
			inputs: [][]byte{{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00}, {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}},
			gen:    gpucrypto.ExpGen(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh program instances per run: equivalence must not depend
			// on shared program state.
			seq := detectWith(t, nil, tc.prog(), tc.inputs, tc.gen)
			par := detectWith(t, NewPool(4).Runner(nil), tc.prog(), tc.inputs, tc.gen)

			if seq.Program != par.Program || seq.Inputs != par.Inputs ||
				seq.Classes != par.Classes || seq.PotentialLeak != par.PotentialLeak {
				t.Fatalf("header mismatch: seq={%s %d %d %v} par={%s %d %d %v}",
					seq.Program, seq.Inputs, seq.Classes, seq.PotentialLeak,
					par.Program, par.Inputs, par.Classes, par.PotentialLeak)
			}
			if !reflect.DeepEqual(seq.Leaks, par.Leaks) {
				t.Errorf("leak sets differ:\nsequential:\n%s\nparallel:\n%s",
					seq.Summary(), par.Summary())
			}
			if len(seq.Leaks) == 0 {
				t.Error("no leaks found; equivalence test is vacuous")
			}
		})
	}
}

// legacyBatch mirrors the pre-streaming recording strategy behind the
// streaming Runner contract: it materializes the whole batch before
// delivering anything to the sink, exactly as batch runners behaved
// before merge-on-arrival.
type legacyBatch struct{}

func (legacyBatch) RecordStream(ctx context.Context, p cuda.Program, reqs []core.RunRequest, recipe core.Recipe, sink core.TraceSink) error {
	out := make([]*trace.ProgramTrace, len(reqs))
	for i, req := range reqs {
		t, err := recipe.Record(ctx, p, req.Input, req.Seed)
		if err != nil {
			return err
		}
		out[i] = t
	}
	for i, t := range out {
		if err := sink(ctx, core.RunResult{Index: reqs[i].Index, Trace: t}); err != nil {
			return err
		}
	}
	return nil
}

// reportJSON serializes a report with its run-dependent timing and
// memory statistics zeroed, leaving every analytic field — leaks, class
// structure, trace sizes — for byte-level comparison.
func reportJSON(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	r := *rep
	r.Stats.TraceCollectTime = 0
	r.Stats.EvidenceTime = 0
	r.Stats.TestTime = 0
	r.Stats.Total = 0
	r.Stats.PeakAllocBytes = 0
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamingEquivalence proves the streaming pipeline is bit-identical
// across recording strategies: for both crypto workloads at a fixed seed,
// the serialized report (timing fields zeroed) from sequential detection
// matches the streaming pool at 1 and 4 workers and the legacy batch
// adapter, byte for byte.
func TestStreamingEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		prog   func() cuda.Program
		inputs [][]byte
		gen    func() cuda.InputGen
	}{
		{
			name:   "libgpucrypto/aes128",
			prog:   func() cuda.Program { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)) },
			inputs: [][]byte{[]byte("0123456789abcdef"), []byte("fedcba9876543210")},
			gen:    gpucrypto.KeyGen,
		},
		{
			name:   "libgpucrypto/rsa",
			prog:   func() cuda.Program { return gpucrypto.NewRSA(gpucrypto.WithMessages(16)) },
			inputs: [][]byte{{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00}, {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}},
			gen:    gpucrypto.ExpGen,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := reportJSON(t, detectWith(t, nil, tc.prog(), tc.inputs, tc.gen()))
			runners := []struct {
				name   string
				runner core.Runner
			}{
				{"stream-workers-1", NewPool(1).Runner(nil)},
				{"stream-workers-4", NewPool(4).Runner(nil)},
				{"legacy-materializing", legacyBatch{}},
			}
			for _, r := range runners {
				got := reportJSON(t, detectWith(t, r.runner, tc.prog(), tc.inputs, tc.gen()))
				if !bytes.Equal(want, got) {
					t.Errorf("%s report differs from sequential:\nseq: %s\ngot: %s", r.name, want, got)
				}
			}
			if !bytes.Contains(want, []byte(`"Leaks":[{`)) {
				t.Error("sequential report found no leaks; equivalence test is vacuous")
			}
		})
	}
}

// TestWorkersEquivalence covers the built-in Workers pool against the
// service pool: all three recording strategies must agree bit-for-bit.
func TestWorkersEquivalence(t *testing.T) {
	inputs := [][]byte{[]byte("0123456789abcdef"), []byte("a secret aes key")}
	seq := detectWith(t, nil, gpucrypto.NewAES(gpucrypto.WithBlocks(8)), inputs, gpucrypto.KeyGen())

	opts := core.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 12, 12
	opts.Seed = 42
	opts.Workers = 3
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	workers, err := det.Detect(gpucrypto.NewAES(gpucrypto.WithBlocks(8)), inputs, gpucrypto.KeyGen())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Leaks, workers.Leaks) {
		t.Errorf("Workers=3 leak set differs from sequential:\n%s\nvs\n%s",
			workers.Summary(), seq.Summary())
	}
}
