// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VIII), plus the ablations called out in DESIGN.md §5. Each benchmark
// measures one artifact end-to-end and reports domain metrics
// (leaks found, trace bytes, classes) alongside ns/op:
//
//	go test -bench=. -benchmem
package owl_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"owl/internal/baseline/data"
	"owl/internal/baseline/pitchfork"
	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/experiments"
	"owl/internal/gpu"
	"owl/internal/microarch"
	"owl/internal/owlc"
	"owl/internal/quantify"
	"owl/internal/trace"
	"owl/internal/workloads/dummy"
	"owl/internal/workloads/gpucrypto"
	"owl/internal/workloads/jpeg"
	"owl/internal/workloads/torch"
)

// benchConfig keeps benchmark iterations affordable while exercising the
// full pipeline; `owlbench -paper` runs the 100+100 configuration.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.FixedRuns, cfg.RandomRuns = 10, 10
	return cfg
}

func benchOptions() core.Options {
	o := core.DefaultOptions()
	o.FixedRuns, o.RandomRuns = 10, 10
	return o
}

func detect(b *testing.B, opts core.Options, p cuda.Program, inputs [][]byte, gen cuda.InputGen) *core.Report {
	b.Helper()
	det, err := core.NewDetector(opts)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := det.Detect(p, inputs, gen)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTable1Capabilities renders the capability matrix (static data
// plus the live DATA/pitchfork/Owl rows).
func BenchmarkTable1Capabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.RenderTable1(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Platform renders the platform parameters.
func BenchmarkTable2Platform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.RenderTable2(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// Table III per-program benchmarks: one per evaluated group, measuring the
// full three-phase detection.

func BenchmarkTable3AES(b *testing.B) {
	p := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	inputs := [][]byte{[]byte("0123456789abcdef"), []byte("fedcba9876543210")}
	var leaks int
	for i := 0; i < b.N; i++ {
		rep := detect(b, benchOptions(), p, inputs, gpucrypto.KeyGen())
		leaks = rep.Count(core.DataFlowLeak)
	}
	b.ReportMetric(float64(leaks), "df-leaks")
}

func BenchmarkTable3RSA(b *testing.B) {
	p := gpucrypto.NewRSA(gpucrypto.WithMessages(16))
	inputs := [][]byte{{0xff, 0, 0xff, 0}, {1, 2, 3, 4}}
	var leaks int
	for i := 0; i < b.N; i++ {
		rep := detect(b, benchOptions(), p, inputs, gpucrypto.ExpGen())
		leaks = rep.Count(core.ControlFlowLeak)
	}
	b.ReportMetric(float64(leaks), "cf-leaks")
}

func BenchmarkTable3TorchRepr(b *testing.B) {
	p, err := torch.NewOp(nil, "repr", 16)
	if err != nil {
		b.Fatal(err)
	}
	inputs := [][]byte{torch.ZeroTensorInput(16), {1, 2, 3, 4}}
	var leaks int
	for i := 0; i < b.N; i++ {
		rep := detect(b, benchOptions(), p, inputs, torch.GenSparseBytes(16))
		leaks = rep.Count(core.KernelLeak)
	}
	b.ReportMetric(float64(leaks), "kernel-leaks")
}

func BenchmarkTable3TorchNumeric(b *testing.B) {
	// A leak-free function ends at phase 2: the cheap path of Table III.
	p, err := torch.NewOp(nil, "relu", 0)
	if err != nil {
		b.Fatal(err)
	}
	inputs := [][]byte{{1, 2, 3, 4}, {4, 3, 2, 1}}
	for i := 0; i < b.N; i++ {
		rep := detect(b, benchOptions(), p, inputs, torch.GenBytes(4))
		if rep.PotentialLeak {
			b.Fatal("relu flagged as leaky")
		}
	}
}

func BenchmarkTable3JPEGEncode(b *testing.B) {
	enc, err := jpeg.NewEncoder(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	inputs := [][]byte{jpeg.SynthImage(8, 8, 1), jpeg.SynthImage(8, 8, 2)}
	var cf, df int
	for i := 0; i < b.N; i++ {
		rep := detect(b, benchOptions(), enc, inputs, jpeg.GenImage(8, 8))
		cf, df = rep.Count(core.ControlFlowLeak), rep.Count(core.DataFlowLeak)
	}
	b.ReportMetric(float64(cf), "cf-leaks")
	b.ReportMetric(float64(df), "df-leaks")
}

func BenchmarkTable3JPEGDecode(b *testing.B) {
	dec, err := jpeg.NewDecoder(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	inputs := [][]byte{jpeg.SynthImage(8, 8, 1), jpeg.SynthImage(8, 8, 2)}
	for i := 0; i < b.N; i++ {
		rep := detect(b, benchOptions(), dec, inputs, jpeg.GenImage(8, 8))
		if rep.PotentialLeak {
			b.Fatal("decode flagged as leaky")
		}
	}
}

// Table IV phase benchmarks: the per-phase costs reported in the table.

func BenchmarkTable4TraceCollection(b *testing.B) {
	det, err := core.NewDetector(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	key := []byte("0123456789abcdef")
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := det.RecordOnce(p, key)
		if err != nil {
			b.Fatal(err)
		}
		bytes = tr.SizeBytes()
	}
	b.ReportMetric(float64(bytes), "trace-bytes")
}

// BenchmarkRecordRun measures the detector's per-run recording path, the
// fixed cost every run of a detection pays: runs stream through
// core.StreamParallel on one slot, in batches of up to 64 through one
// core.Recipe, and each trace is released as the evidence merge releases
// it. One op is one run, so ns/op and allocs/op are per run. The two
// small-kernel programs are the ones whose detections run 400-800 runs
// per regime: shmem-leaky with the cost channel, and the tokenizer.
// nvjpeg/encode launches four kernels per run, each recorded into the
// invocation and graph its launch position held in the released trace.
func BenchmarkRecordRun(b *testing.B) {
	for _, bc := range []struct {
		name, prog string
		cost       bool
	}{
		{"shmem-leaky-cost", "workloads/shmem-leaky", true},
		{"tokenize", "media/tokenize", false},
		{"nvjpeg-encode", "nvjpeg/encode", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			target, err := experiments.FindTarget(bc.prog)
			if err != nil {
				b.Fatal(err)
			}
			const batch = 64
			gen := rand.New(rand.NewSource(1))
			reqs := make([]core.RunRequest, batch)
			for i := range reqs {
				reqs[i] = core.RunRequest{Index: i, Input: target.Gen(gen), Seed: gen.Int63()}
			}
			recipe := core.Recipe{Device: gpu.DefaultConfig(), Rebase: true, Cost: bc.cost}
			sink := func(_ context.Context, res core.RunResult) error {
				trace.Release(res.Trace)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				n := min(batch, b.N-done)
				if err := core.StreamParallel(context.Background(), make(chan struct{}, 1), target.Program, reqs[:n], recipe, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4EvidenceCollection merges pre-recorded fixed-input
// aes128 runs into evidence: the evidence-merge layer alone. Its
// histograms hold about 30 cells, so they stay cells; the Random and Both
// variants below reach the dense evidence histograms.
func BenchmarkTable4EvidenceCollection(b *testing.B) {
	fixed, _ := evidenceRuns(b, benchOptions(), 10, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evidence.NewDiff(len(fixed))
		for _, t := range fixed {
			ev.AddRun(t)
		}
	}
}

// BenchmarkTable4EvidenceRepeats is BenchmarkTable4EvidenceCollection
// as a detection's fixed regime pays it: the same 10 fixed-input runs,
// each compared with the first (trace.Equal), merge as one group of 10
// counted copies in one walk (evidence.MergeN).
func BenchmarkTable4EvidenceRepeats(b *testing.B) {
	fixed, _ := evidenceRuns(b, benchOptions(), 10, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evidence.NewDiff(len(fixed))
		for _, t := range fixed {
			if !t.Equal(fixed[0]) {
				b.Fatal("fixed-input runs recorded different traces")
			}
		}
		evidence.MergeN(evidence.Fixed, fixed[0], ev, nil, len(fixed))
	}
}

// BenchmarkTable4EvidenceCollectionRandom merges random-input aes128 runs:
// each adds a couple dozen table addresses, so the evidence histograms
// pass the small class and merge as dense counts.
func BenchmarkTable4EvidenceCollectionRandom(b *testing.B) {
	_, random := evidenceRuns(b, benchOptions(), 0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evidence.NewDiff(len(random))
		for _, t := range random {
			ev.AddRun(t)
		}
	}
}

// BenchmarkTable4EvidenceCollectionBoth is evidence mode both with the
// cost channel: every fixed and random run merges, in one walk, into its
// regime's diff evidence and the statistical engine, the two consumers
// of one both-mode recording loop.
func BenchmarkTable4EvidenceCollectionBoth(b *testing.B) {
	opts := benchOptions()
	opts.Evidence = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
	fixed, random := evidenceRuns(b, opts, 10, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eFix, eRnd := evidence.NewDiff(len(fixed)), evidence.NewDiff(len(random))
		engine := evidence.NewEngine(evidence.Config{TThreshold: evidence.DefaultTThreshold, MIBins: evidence.DefaultMIBins})
		for _, t := range fixed {
			evidence.Merge(evidence.Fixed, t, eFix, engine)
		}
		for _, t := range random {
			evidence.Merge(evidence.Random, t, eRnd, engine)
		}
	}
}

// evidenceRuns records nFixed runs of the fixed aes128 key and nRandom
// runs of random keys under opts, for the evidence-merge benchmarks.
func evidenceRuns(b *testing.B, opts core.Options, nFixed, nRandom int) (fixed, random []*trace.ProgramTrace) {
	b.Helper()
	det, err := core.NewDetector(opts)
	if err != nil {
		b.Fatal(err)
	}
	p := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	gen, rng := gpucrypto.KeyGen(), rand.New(rand.NewSource(1))
	record := func(input []byte) *trace.ProgramTrace {
		tr, err := det.RecordOnce(p, input)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	for i := 0; i < nFixed; i++ {
		fixed = append(fixed, record([]byte("0123456789abcdef")))
	}
	for i := 0; i < nRandom; i++ {
		random = append(random, record(gen(rng)))
	}
	return fixed, random
}

func BenchmarkTable4DistributionTest(b *testing.B) {
	// End-to-end minus recording dominates the test; measured via a tiny
	// detection on the dummy program where tracing is cheap.
	p := dummy.New()
	inputs := [][]byte{{1, 2}, {3, 4}}
	var testMS float64
	for i := 0; i < b.N; i++ {
		rep := detect(b, benchOptions(), p, inputs, dummy.Gen(2))
		testMS = float64(rep.Stats.TestTime.Microseconds()) / 1000
	}
	b.ReportMetric(testMS, "test-ms")
}

// materializingRunner is the pre-streaming recording strategy: the whole
// batch is recorded and held in memory before any trace reaches the sink.
// It reproduces the old O(runs) evidence-phase memory profile behind the
// streaming Runner contract.
type materializingRunner struct{}

func (materializingRunner) RecordStream(ctx context.Context, p cuda.Program, reqs []core.RunRequest, recipe core.Recipe, sink core.TraceSink) error {
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

var (
	streamingBenchMu      sync.Mutex
	streamingBenchResults = map[string]map[string]float64{}
)

// BenchmarkTable4StreamingVsBatch compares the streaming merge-on-arrival
// pipeline against the legacy materialize-then-merge batch contract on the
// Table IV workload (aes128), reporting peak live heap and evidence time.
// Results are also written to BENCH_streaming.json for the CI artifact.
func BenchmarkTable4StreamingVsBatch(b *testing.B) {
	p := func() cuda.Program { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)) }
	inputs := [][]byte{[]byte("0123456789abcdef"), []byte("fedcba9876543210")}
	modes := []struct {
		name string
		opts func() core.Options
	}{
		{"streaming-workers-4", func() core.Options {
			o := benchOptions()
			o.FixedRuns, o.RandomRuns = 40, 40
			o.Workers = 4
			return o
		}},
		{"legacy-batch", func() core.Options {
			o := benchOptions()
			o.FixedRuns, o.RandomRuns = 40, 40
			o.Runner = materializingRunner{}
			return o
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep = detect(b, mode.opts(), p(), inputs, gpucrypto.KeyGen())
			}
			peak := float64(rep.Stats.PeakAllocBytes)
			evMS := float64(rep.Stats.EvidenceTime.Microseconds()) / 1000
			b.ReportMetric(peak, "peak-alloc-bytes")
			b.ReportMetric(evMS, "evidence-ms")
			streamingBenchMu.Lock()
			streamingBenchResults[mode.name] = map[string]float64{
				"peak_alloc_bytes": peak,
				"evidence_ms":      evMS,
				"leaks":            float64(len(rep.Leaks)),
			}
			streamingBenchMu.Unlock()
		})
	}
	b.Cleanup(func() {
		streamingBenchMu.Lock()
		defer streamingBenchMu.Unlock()
		out, err := json.MarshalIndent(streamingBenchResults, "", "  ")
		if err != nil {
			b.Error(err)
			return
		}
		if err := os.WriteFile("BENCH_streaming.json", out, 0o644); err != nil {
			b.Error(err)
		}
	})
}

var (
	evidenceBenchMu      sync.Mutex
	evidenceBenchResults = map[string]map[string]float64{}
)

// BenchmarkEvidenceEarlyStop compares the fixed-budget diff detector
// against the sequential early-stopping statistical detector on aes128
// at equal verdicts, reporting runs recorded and wall time per
// detection. Results are also written to BENCH_evidence.json for the CI
// artifact; the equal-verdict guarantee itself is locked by
// TestEarlyStopMatchesFixedRunVerdicts.
func BenchmarkEvidenceEarlyStop(b *testing.B) {
	target, err := experiments.FindTarget("libgpucrypto/aes128")
	if err != nil {
		b.Fatal(err)
	}
	base := func() core.Options {
		o := core.DefaultOptions()
		o.FixedRuns, o.RandomRuns = 40, 40
		o.Seed = 42
		return o
	}
	modes := []struct {
		name string
		opts func() core.Options
	}{
		{"fixed-runs-diff", base},
		{"early-stop-both", func() core.Options {
			o := base()
			o.Evidence = core.EvidenceConfig{
				Mode:          core.EvidenceBoth,
				TVLAThreshold: 3,
				EarlyStop:     core.EarlyStopPolicy{Enabled: true, StableChecks: 1},
			}
			return o
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			var rep *core.Report
			start := time.Now()
			for i := 0; i < b.N; i++ {
				rep = detect(b, mode.opts(), target.Program, target.Inputs, target.Gen)
			}
			wallMS := float64(time.Since(start).Microseconds()) / 1000 / float64(b.N)
			used, budget := rep.RunsUsed, rep.RunsBudget
			if used == 0 { // diff mode records the whole fixed budget
				used, budget = rep.Stats.EvidenceTraces, rep.Stats.EvidenceTraces
			}
			b.ReportMetric(float64(used), "runs-used")
			b.ReportMetric(wallMS, "wall-ms")
			evidenceBenchMu.Lock()
			evidenceBenchResults[mode.name] = map[string]float64{
				"runs_used":   float64(used),
				"runs_budget": float64(budget),
				"wall_ms":     wallMS,
				"leaks":       float64(len(rep.Leaks)),
				"early_stop":  b2f(rep.EarlyStopped),
			}
			evidenceBenchMu.Unlock()
		})
	}
	b.Cleanup(func() {
		evidenceBenchMu.Lock()
		defer evidenceBenchMu.Unlock()
		out, err := json.MarshalIndent(evidenceBenchResults, "", "  ")
		if err != nil {
			b.Error(err)
			return
		}
		if err := os.WriteFile("BENCH_evidence.json", out, 0o644); err != nil {
			b.Error(err)
		}
	})
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkFig5 sweeps the trace-size growth measurement.
func BenchmarkFig5TraceGrowth(b *testing.B) {
	var last int
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig5(benchConfig(), []int{64, 512})
		if err != nil {
			b.Fatal(err)
		}
		last = points[len(points)-1].TraceBytes
	}
	b.ReportMetric(float64(last), "trace-bytes")
}

// BenchmarkRQ3 baselines.

func BenchmarkRQ3DATA(b *testing.B) {
	d, err := data.New(data.Options{Runs: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := torch.NewOp(nil, "repr", 16)
	if err != nil {
		b.Fatal(err)
	}
	var leaks int
	for i := 0; i < b.N; i++ {
		rep, err := d.Detect(p, torch.ZeroTensorInput(16), torch.GenSparseBytes(16))
		if err != nil {
			b.Fatal(err)
		}
		leaks = len(rep.HostLeaks)
	}
	b.ReportMetric(float64(leaks), "host-leaks")
}

func BenchmarkRQ3Pitchfork(b *testing.B) {
	k := gpucrypto.NewAES().Kernel()
	var findings int
	for i := 0; i < b.N; i++ {
		fs, err := pitchfork.Analyze(k, pitchfork.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		findings = len(fs)
	}
	b.ReportMetric(float64(findings), "findings")
}

// Ablation benchmarks (DESIGN.md §5).

// BenchmarkAblationWelch compares the KS and Welch test paths.
func BenchmarkAblationWelch(b *testing.B) {
	inputs := [][]byte{{200, 200}, {1, 1}}
	for _, mode := range []struct {
		name  string
		welch bool
	}{{"KS", false}, {"Welch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			o := benchOptions()
			o.UseWelch = mode.welch
			var leaks int
			for i := 0; i < b.N; i++ {
				rep := detect(b, o, dummy.New(), inputs, dummy.Gen(2))
				leaks = rep.Count(core.DataFlowLeak)
			}
			b.ReportMetric(float64(leaks), "df-leaks")
		})
	}
}

// BenchmarkAblationPerThread compares A-DCFG aggregation against DATA's
// per-thread recording at growing thread counts.
func BenchmarkAblationPerThread(b *testing.B) {
	for _, threads := range []int{256, 2048} {
		input := make([]byte, threads)
		rand.New(rand.NewSource(int64(threads))).Read(input)
		b.Run("owl/"+strconv.Itoa(threads), func(b *testing.B) {
			det, err := core.NewDetector(benchOptions())
			if err != nil {
				b.Fatal(err)
			}
			var bytes int
			for i := 0; i < b.N; i++ {
				tr, err := det.RecordOnce(dummy.New(), input)
				if err != nil {
					b.Fatal(err)
				}
				bytes = tr.SizeBytes()
			}
			b.ReportMetric(float64(bytes), "trace-bytes")
		})
		b.Run("perthread/"+strconv.Itoa(threads), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				tr := &data.PerThreadTracer{}
				ctx, err := cuda.NewContext(gpu.DefaultConfig(), rand.New(rand.NewSource(1)), tr)
				if err != nil {
					b.Fatal(err)
				}
				if err := dummy.New().Run(ctx, input); err != nil {
					b.Fatal(err)
				}
				bytes = tr.Bytes()
			}
			b.ReportMetric(float64(bytes), "trace-bytes")
		})
	}
}

// BenchmarkAblationASLR measures the classing cost of disabling address
// rebasing under ASLR.
func BenchmarkAblationASLR(b *testing.B) {
	inputs := [][]byte{{1}, {1}, {1}}
	for _, mode := range []struct {
		name   string
		rebase bool
	}{{"rebased", true}, {"raw", false}} {
		b.Run(mode.name, func(b *testing.B) {
			o := benchOptions()
			o.Device.ASLR = true
			o.Rebase = mode.rebase
			var classes int
			for i := 0; i < b.N; i++ {
				rep := detect(b, o, dummy.New(), inputs, dummy.Gen(1))
				classes = rep.Classes
			}
			b.ReportMetric(float64(classes), "classes")
		})
	}
}

// BenchmarkAblationFiltering measures the duplicates-removing phase's
// saving on redundant inputs.
func BenchmarkAblationFiltering(b *testing.B) {
	in := []byte{9, 9}
	inputs := [][]byte{in, in, in, in}
	for _, mode := range []struct {
		name   string
		filter bool
	}{{"filtered", true}, {"unfiltered", false}} {
		b.Run(mode.name, func(b *testing.B) {
			o := benchOptions()
			o.FilterDuplicates = mode.filter
			var evidence int
			for i := 0; i < b.N; i++ {
				rep := detect(b, o, dummy.New(), inputs, dummy.Gen(2))
				evidence = rep.Stats.EvidenceTraces
			}
			b.ReportMetric(float64(evidence), "evidence-traces")
		})
	}
}

// BenchmarkQuantify measures the leakage-quantification extension.
func BenchmarkQuantify(b *testing.B) {
	det, err := core.NewDetector(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := dummy.New()
	var maxJSD float64
	for i := 0; i < b.N; i++ {
		rep, err := quantify.Quantify(det, p, []byte{1, 2, 3}, dummy.Gen(3), 10)
		if err != nil {
			b.Fatal(err)
		}
		maxJSD = rep.MaxJSD()
	}
	b.ReportMetric(maxJSD, "max-jsd-bits")
}

// BenchmarkOwlcCompile measures compiling an OwlC kernel to the device ISA.
func BenchmarkOwlcCompile(b *testing.B) {
	src := `
		kernel subst(pt, key, sbox, ct, n) {
			if (tid < n) {
				var k = key[tid % 8];
				var x = pt[tid] ^ k;
				for (var i = 0; i < 4; i = i + 1) {
					x = sbox[x & 255] ^ (x >> 8);
				}
				ct[tid] = x;
			}
		}
	`
	for i := 0; i < b.N; i++ {
		if _, err := owlc.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransactions measures the coalescing transaction model on
// one 32-lane warp access.
func BenchmarkTransactions(b *testing.B) {
	addrs := make([]int64, 32)
	for i := range addrs {
		addrs[i] = int64(i * 7)
	}
	var n int
	for i := 0; i < b.N; i++ {
		n = microarch.Transactions(addrs)
	}
	b.ReportMetric(float64(n), "transactions")
}
