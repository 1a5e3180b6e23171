// Package core implements the Owl pipeline — the paper's primary
// contribution: (1) the trace-recording phase drives the program under the
// Pin/NVBit-equivalent tracer and reconstructs one A-DCFG per kernel
// invocation; (2) the duplicates-removing phase classes inputs by trace
// equality and keeps one representative per class; (3) the leakage-analysis
// phase re-executes each representative under fixed and random inputs,
// merges the traces into evidence, and runs Kolmogorov-Smirnov distribution
// tests to separate input-dependent differences (leaks) from
// non-deterministic noise, locating kernel, device control-flow, and device
// data-flow leaks.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/obs"
	"owl/internal/stats"
	"owl/internal/trace"
	"owl/internal/tracer"
)

// Options configures a Detector. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// FixedRuns and RandomRuns are the per-regime execution counts of the
	// leakage-analysis phase. The paper uses 100 each (§VIII-A).
	FixedRuns  int
	RandomRuns int
	// Confidence is the KS confidence level α; the null hypothesis is
	// rejected when p < 1-α. The paper uses 0.95.
	Confidence float64
	// Seed makes the whole detection deterministic.
	Seed int64
	// Device sizes the simulated GPU.
	Device gpu.Config
	// Rebase converts traced global addresses to allocation-relative
	// offsets (§V-C). Disable only for the ASLR ablation.
	Rebase bool
	// FilterDuplicates enables the duplicates-removing phase (§VI).
	FilterDuplicates bool
	// UseWelch substitutes Welch's t-test for the KS test (ablation).
	UseWelch bool
	// Workers parallelizes trace collection across goroutines on the
	// built-in runner. Results are bit-identical to sequential collection:
	// the per-run inputs and seeds are drawn up front in sequential order,
	// and evidence merges in run order through a reorder window. 0 or 1
	// means sequential. Workers selects the built-in runner and is
	// therefore mutually exclusive with Runner — NewDetector rejects
	// options that set both.
	Workers int
	// Runner, when non-nil, executes recording in place of the built-in
	// Workers pool — the hook the owld service uses to slot a shared,
	// bounded worker pool under the pipeline. Implementations stream each
	// trace to the pipeline's sink as it completes (see Runner) and must
	// dispatch requests in index order; determinism is preserved because
	// inputs and seeds are drawn before dispatch and merges are reordered
	// by request index. Mutually exclusive with Workers — NewDetector
	// rejects options that set both.
	Runner Runner
	// OnProgress, when non-nil, observes pipeline progress: phase
	// transitions and per-execution counts. It is called concurrently from
	// recording workers and must be safe for concurrent use.
	OnProgress func(Progress)
	// OnEvidence, when non-nil, observes one statistical-evidence
	// trajectory sample per recording round of the statistical channel
	// (Evidence mode tvla/both) — the live-convergence feed behind owld's
	// job event stream and owl -follow. Setting it switches recording to
	// round-sized chunks even without early stopping, which changes span
	// granularity but never run order or results. Called from the
	// detection goroutine, between rounds.
	OnEvidence func(EvidenceSample)
	// Evidence selects and configures the evidence channel(s): the paper's
	// set-difference channel, the streaming statistical channel (TVLA
	// Welch's t + mutual information), or both, plus sequential early
	// stopping of the recording phase. The zero value selects the diff
	// channel with no early stopping — the byte-identical default
	// pipeline.
	Evidence EvidenceConfig
}

// RunRequest is one instrumented-execution request handed to a Runner.
// Index is the request's position in the batch; Seed derives the run's
// private RNG from the detector's base seed.
type RunRequest struct {
	Index int
	Input []byte
	Seed  int64
}

// RunResult is one completed instrumented execution: the request's index
// in its batch plus the recorded trace.
type RunResult struct {
	Index int
	Trace *trace.ProgramTrace
}

// TraceSink consumes completed recordings. Runners invoke it from worker
// goroutines as each execution finishes, in any order; sinks must be safe
// for concurrent use. Ownership of the delivered trace transfers to the
// sink — the pipeline's sinks merge it and recycle its buffers, so
// runners must not touch a trace after delivery. A sink may block to
// apply backpressure (the reorder window doing so is how peak memory
// stays bounded); it unblocks when ctx fires. A sink error aborts the
// batch.
type TraceSink func(ctx context.Context, res RunResult) error

// Runner streams a batch of recording requests: record each request
// with recipe and deliver its trace to sink as soon as it completes. A
// local runner calls recipe.Record; a remote one ships the recipe's
// device, rebase and cost settings with the requests and hands the
// kernel definitions it receives back to recipe.Harvest, so every run of
// a detection is recorded alike wherever it executes. Runners may record
// concurrently but must dispatch requests in index order — the
// pipeline's ordered sinks rely on that to bound their reorder window
// without deadlock. A Runner must stop early and return an error when
// ctx is canceled; it must not return nil before every request's trace
// has been accepted by the sink.
type Runner interface {
	RecordStream(ctx context.Context, p cuda.Program, reqs []RunRequest, recipe Recipe, sink TraceSink) error
}

// Pipeline phases reported via Options.OnProgress.
const (
	PhaseClassify = "classify"
	PhaseRecord   = "record"
	PhaseAnalyze  = "analyze"
)

// Progress is one pipeline progress observation.
type Progress struct {
	Phase   string // PhaseClassify, PhaseRecord, or PhaseAnalyze
	Classes int    // input classes; 0 until the duplicates-removing phase ends
	Runs    int    // instrumented executions recorded so far
}

// EvidenceSample is one per-round snapshot of the statistical channel's
// convergence, reported via Options.OnEvidence: how far into the class's
// run budget the round got, the evidence engine's current trajectory,
// and the early-stop state of the class's round loop.
type EvidenceSample struct {
	Round        int     `json:"round"`                   // 1-based recording round within the class
	Runs         int     `json:"runs"`                    // runs recorded for this class so far (both regimes)
	Sites        int     `json:"sites"`                   // sites with enough data to evaluate
	LeakSites    int     `json:"leak_sites"`              // distinct screened locations currently leaking
	MaxAbsT      float64 `json:"max_abs_t"`               // strongest |t| across evaluated sites
	StableChecks int     `json:"stable_checks"`           // consecutive checks with an unchanged signature
	EarlyStopped bool    `json:"early_stopped,omitempty"` // this round's check stopped the class early
}

// DefaultOptions mirrors the paper's evaluation setup.
func DefaultOptions() Options {
	return Options{
		FixedRuns:        100,
		RandomRuns:       100,
		Confidence:       0.95,
		Seed:             1,
		Device:           gpu.DefaultConfig(),
		Rebase:           true,
		FilterDuplicates: true,
	}
}

// InputClass groups inputs that produced canonically equal traces.
type InputClass struct {
	Hash    [32]byte
	Rep     []byte
	Members int
	Trace   *trace.ProgramTrace
}

// Detector runs Owl detections.
type Detector struct {
	opts    Options
	recipe  Recipe
	rng     *rand.Rand
	kmu     sync.Mutex
	kernels map[string]*isa.Kernel
	runner  Runner
	runs    atomic.Int64 // instrumented executions recorded
	classes atomic.Int64 // input classes once known
	phase   atomic.Value // current pipeline phase (string)

	// scratch is the per-run KS tests' sort buffer of counted entries,
	// reused from test to test; analysis runs on the detecting goroutine.
	scratch []stats.Count

	ramMu      sync.Mutex // serializes trackRAM's sample buffer and cache
	ramSamples []metrics.Sample
	ramCycles  uint64 // GC cycles completed at the last heap read
	ramLive    uint64 // live heap bytes as of that read
}

// NewDetector validates options and returns a detector.
func NewDetector(opts Options) (*Detector, error) {
	if opts.FixedRuns < 2 || opts.RandomRuns < 2 {
		return nil, fmt.Errorf("%w (got %d fixed / %d random)",
			ErrInvalidRunCount, opts.FixedRuns, opts.RandomRuns)
	}
	ev, err := opts.Evidence.normalized()
	if err != nil {
		return nil, err
	}
	opts.Evidence = ev
	if opts.Confidence <= 0 || opts.Confidence >= 1 {
		return nil, fmt.Errorf("core: confidence %v outside (0,1)", opts.Confidence)
	}
	if opts.Device.GlobalWords == 0 {
		opts.Device = gpu.DefaultConfig()
	}
	if opts.Runner != nil && opts.Workers != 0 {
		return nil, fmt.Errorf("core: Options.Workers (%d) and Options.Runner are mutually exclusive; set Workers for the built-in pool or Runner for a custom one, not both", opts.Workers)
	}
	d := &Detector{
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		kernels:    make(map[string]*isa.Kernel),
		ramSamples: append([]metrics.Sample(nil), heapLiveSamples...),
	}
	d.recipe = Recipe{
		Device:  opts.Device,
		Rebase:  opts.Rebase,
		Cost:    opts.Evidence.CostEnabled(),
		Harvest: d.RegisterKernel,
	}
	d.runner = opts.Runner
	if d.runner == nil {
		d.runner = poolRunner{workers: opts.Workers}
	}
	return d, nil
}

// setPhase records a phase transition and notifies OnProgress.
func (d *Detector) setPhase(phase string) {
	d.phase.Store(phase)
	d.notifyProgress()
}

func (d *Detector) notifyProgress() {
	if d.opts.OnProgress == nil {
		return
	}
	phase, _ := d.phase.Load().(string)
	d.opts.OnProgress(Progress{
		Phase:   phase,
		Classes: int(d.classes.Load()),
		Runs:    int(d.runs.Load()),
	})
}

// poolRunner is the built-in streaming Runner: StreamParallel over a
// per-batch set of workers slots, one slot (sequential recording) for
// workers <= 1. Each trace is delivered to the sink the moment its run
// completes.
type poolRunner struct{ workers int }

func (r poolRunner) RecordStream(ctx context.Context, p cuda.Program, reqs []RunRequest, recipe Recipe, sink TraceSink) error {
	return StreamParallel(ctx, make(chan struct{}, max(r.workers, 1)), p, reqs, recipe, sink)
}

// kernelObserver wraps the tracer to hand each launched kernel's
// definition to harvest, so leak reports keep their block labels and
// instruction annotations wherever the run was recorded.
type kernelObserver struct {
	*tracer.Tracer
	harvest func(*isa.Kernel)
}

func (k kernelObserver) OnLaunch(info cuda.LaunchInfo) gpu.Instrument {
	if k.harvest != nil {
		k.harvest(info.Kernel)
	}
	return k.Tracer.OnLaunch(info)
}

// RegisterKernel records a kernel definition, so leak reports keep their
// block labels and instruction annotations. It is the Harvest of the
// detector's recipe: local runs feed it at launch, and fleet runners feed
// it the definitions shipped back by remote workers.
func (d *Detector) RegisterKernel(k *isa.Kernel) {
	if k == nil {
		return
	}
	d.kmu.Lock()
	d.kernels[k.Name] = k
	d.kmu.Unlock()
}

// KernelDef returns the definition of a kernel harvested while recording
// (kernels register on launch), or nil when no launch under that name has
// been observed. Transformation passes use this to obtain the ISA form of
// a leaking kernel; callers must Clone before rewriting.
func (d *Detector) KernelDef(name string) *isa.Kernel {
	d.kmu.Lock()
	defer d.kmu.Unlock()
	return d.kernels[name]
}

// GenRNG derives a fresh random source from the detector's seed, for
// callers (quantification, extensions) that draw their own random inputs
// deterministically.
func (d *Detector) GenRNG() *rand.Rand {
	return rand.New(rand.NewSource(d.rng.Int63()))
}

// RecordOnce executes the program once under instrumentation and returns
// its trace (phase 1 for one input). The run goes through the detector's
// Runner like every other run.
func (d *Detector) RecordOnce(p cuda.Program, input []byte) (t *trace.ProgramTrace, err error) {
	err = d.RecordEach(context.Background(), p, [][]byte{input}, func(_ int, rt *trace.ProgramTrace) error { t = rt; return nil })
	return t, err
}

// RecordEach records one run per input through the detector's Runner and
// calls consume with each trace in input order, whatever order the runs
// complete in. Each run's seed is drawn from the detector in input order
// before dispatch, so the traces are the same for any Runner or worker
// count. consume owns the trace it receives: it keeps it or hands it to
// trace.Release. It runs serialized, and an error from it aborts the
// batch.
func (d *Detector) RecordEach(ctx context.Context, p cuda.Program, inputs [][]byte, consume func(i int, t *trace.ProgramTrace) error) error {
	reqs := make([]RunRequest, len(inputs))
	for i, in := range inputs {
		reqs[i] = RunRequest{Input: in, Seed: d.rng.Int63()}
	}
	return d.recordStream(ctx, p, reqs, consume)
}

// recordStream is every recording of a detector: it streams reqs through
// the Runner into an ordered sink that counts each run, wherever it was
// recorded, and calls consume for request 0, 1, 2, ...; then it checks
// that the Runner delivered every trace. Request indexes are set to batch
// positions, so any slice of a drawn request list is a self-contained
// batch for the Runner.
func (d *Detector) recordStream(ctx context.Context, p cuda.Program, reqs []RunRequest, consume func(i int, t *trace.ProgramTrace) error) error {
	batch := make([]RunRequest, len(reqs))
	for i, req := range reqs {
		req.Index = i
		batch[i] = req
	}
	sink := newOrderedSink(0, func(i int, t *trace.ProgramTrace) error {
		d.runs.Add(1)
		d.notifyProgress()
		return consume(i, t)
	})
	if err := d.runner.RecordStream(ctx, p, batch, d.recipe, sink.Sink); err != nil {
		return err
	}
	if n := sink.delivered(); n != len(reqs) {
		return fmt.Errorf("core: runner delivered %d traces for %d requests", n, len(reqs))
	}
	return nil
}

// Recipe is Owl's one run recipe: everything that decides how a run is
// recorded. A detection builds its recipe once, from its options, and
// hands it to its Runner, so every fixed- and random-input run is
// recorded alike — locally, on a service pool, or on a remote worker.
// A differential verdict between runs recorded with different recipes
// would measure the recorder, not the secret.
type Recipe struct {
	// Device sizes the simulated GPU every run executes on.
	Device gpu.Config
	// Rebase converts traced global addresses to allocation-relative
	// offsets (§V-C).
	Rebase bool
	// Cost collects the microarchitectural cost channel, whose sites join
	// the trace's canonical encoding.
	Cost bool
	// Harvest, when non-nil, observes each kernel definition at launch.
	// It is called concurrently from recording goroutines.
	Harvest func(*isa.Kernel)
}

// Record executes one seeded instrumented run of p on a private simulated
// device and returns its trace. The run reports under a `run` span in
// ctx, with its kernel launches beneath it and, when Cost is on, a
// microarch_cost_sites counter. Safe for concurrent use: every call
// records on a fresh run state, and programs must not share mutable
// state across Run calls. StreamParallel records the same way, on one
// run state per recording goroutine.
func (r Recipe) Record(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error) {
	s := runState{recipe: r}
	defer s.close()
	return s.record(ctx, p, input, seed)
}

// runState is what one run is recorded on: a context, with its device and
// arena, and the tracer observing it. A recording goroutine keeps one for
// every run it records and resets it between runs, so a run costs little
// more than the kernel work it traces. The zero value with a recipe is
// ready; the first run builds the context and tracer.
type runState struct {
	recipe Recipe
	ctx    *cuda.Context // nil until the first run
	tr     *tracer.Tracer
}

// record is the run recipe: it executes one seeded instrumented run of p
// on the state (see Recipe.Record) and returns its trace, which the state
// no longer references.
func (s *runState) record(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error) {
	rctx, sp := obs.Start(ctx, "run")
	sp.SetInt("input_bytes", int64(len(input)))
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.reset(p.Name(), seed); err != nil {
		return nil, err
	}
	s.ctx.SetObsContext(rctx)
	if err := p.Run(s.ctx, input); err != nil {
		return nil, fmt.Errorf("core: program %s: %w", p.Name(), err)
	}
	t := s.tr.Trace()
	sp.SetInt("instructions", s.ctx.Stats().Instructions)
	if s.recipe.Cost {
		// The cost observables were folded inline during the run, so their
		// time is the run span's; only the site count is recorded.
		sites := 0
		for _, inv := range t.Invocations {
			sites += len(inv.Cost)
		}
		obs.Counter(rctx, "microarch_cost_sites", float64(sites))
	}
	return t, nil
}

// reset readies the state for a run of program with seed: a fresh trace,
// and a context as cuda.NewSeededContext leaves it.
func (s *runState) reset(program string, seed int64) error {
	if s.ctx != nil {
		s.tr.Reset(program)
		return s.ctx.Reset(seed)
	}
	var topts []tracer.Option
	if !s.recipe.Rebase {
		topts = append(topts, tracer.WithoutRebase())
	}
	if s.recipe.Cost {
		topts = append(topts, tracer.WithCost())
	}
	s.tr = tracer.New(program, topts...)
	cctx, err := cuda.NewSeededContext(s.recipe.Device, seed, kernelObserver{Tracer: s.tr, harvest: s.recipe.Harvest})
	if err != nil {
		return err
	}
	s.ctx = cctx
	return nil
}

// close hands the state's device arena back to the shared pool; the
// state's next run, if any, draws one again as its context resets.
func (s *runState) close() {
	if s.ctx != nil {
		s.ctx.Device().Release()
	}
}

// Classify performs the duplicates-removing phase over the user inputs.
func (d *Detector) Classify(p cuda.Program, inputs [][]byte) ([]InputClass, error) {
	return d.ClassifyContext(context.Background(), p, inputs)
}

// ClassifyContext is Classify honoring cancellation between executions.
// Recording streams through the configured Runner and classes inputs on
// arrival: each trace is hashed as it completes, duplicates are released
// to the trace pool immediately, and only one representative trace
// per class stays resident. A reorder window keyed by request index keeps
// classification order — and therefore class representatives — identical
// to sequential recording.
func (d *Detector) ClassifyContext(ctx context.Context, p cuda.Program, inputs [][]byte) ([]InputClass, error) {
	var classes []InputClass
	index := make(map[[32]byte]int)
	err := d.RecordEach(ctx, p, inputs, func(i int, t *trace.ProgramTrace) error {
		h := t.Hash()
		if ci, ok := index[h]; ok {
			classes[ci].Members++
			trace.Release(t) // duplicate: recycle its buffers right away
			return nil
		}
		index[h] = len(classes)
		classes = append(classes, InputClass{Hash: h, Rep: inputs[i], Members: 1, Trace: t})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return classes, nil
}

// Detect runs the full pipeline: record the user-provided inputs, filter
// duplicate traces, and analyze each representative against random inputs
// drawn from gen.
func (d *Detector) Detect(p cuda.Program, inputs [][]byte, gen cuda.InputGen) (*Report, error) {
	return d.DetectContext(context.Background(), p, inputs, gen)
}

// DetectContext is Detect honoring ctx: cancellation or deadline expiry
// aborts the pipeline between instrumented executions and returns the
// context's error. Results are identical to Detect for a ctx that never
// fires.
func (d *Detector) DetectContext(ctx context.Context, p cuda.Program, inputs [][]byte, gen cuda.InputGen) (*Report, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("core: no user inputs provided")
	}
	if gen == nil {
		return nil, fmt.Errorf("core: nil input generator")
	}
	start := time.Now()
	report := &Report{Program: p.Name(), Inputs: len(inputs)}
	leaks := newLeakSet(report)
	ctx, dsp := obs.Start(ctx, "detect")
	dsp.SetStr("program", p.Name())
	dsp.SetInt("inputs", int64(len(inputs)))
	defer dsp.End()

	// Phase 1+2.
	d.setPhase(PhaseClassify)
	t0 := time.Now()
	cctx, csp := obs.Start(ctx, "phase.classify")
	classes, err := d.ClassifyContext(cctx, p, inputs)
	csp.SetInt("classes", int64(len(classes)))
	csp.End()
	if err != nil {
		return nil, err
	}
	perTrace := time.Since(t0) / time.Duration(len(inputs))
	report.Classes = len(classes)
	report.Stats.TraceBytes = classes[0].Trace.SizeBytes()
	report.Stats.TraceCollectTime = perTrace

	if !d.opts.FilterDuplicates {
		// Ablation: analyze every input as its own class.
		all := make([]InputClass, len(inputs))
		err := d.RecordEach(ctx, p, inputs, func(i int, t *trace.ProgramTrace) error {
			all[i] = InputClass{Rep: inputs[i], Members: 1, Trace: t}
			return nil
		})
		if err != nil {
			return nil, err
		}
		classes = all
	} else if len(classes) == 1 && len(inputs) > 1 {
		// All user inputs produced identical traces: leakage-free per §VI.
		d.classes.Store(int64(len(classes)))
		d.notifyProgress()
		report.PotentialLeak = false
		report.Stats.Total = time.Since(start)
		return report, nil
	}
	d.classes.Store(int64(len(classes)))
	d.notifyProgress()
	report.PotentialLeak = true

	// Phase 3 per representative. Each class's representative trace is
	// recycled as soon as its analysis finishes — after classification the
	// pipeline never needs more than the class under analysis resident.
	for i, cls := range classes {
		actx, asp := obs.Start(ctx, "class")
		asp.SetInt("index", int64(i))
		asp.SetInt("members", int64(cls.Members))
		repeats, err := d.analyzeClass(actx, p, cls, gen, leaks)
		asp.SetInt("fixed_repeats", int64(repeats))
		asp.End()
		if err != nil {
			return nil, err
		}
		trace.Release(classes[i].Trace)
		classes[i].Trace = nil
	}
	report.Stats.Total = time.Since(start)
	return report, nil
}

// analyzeClass runs the leakage-analysis phase for one input class,
// adding its leaks to the detection's report. One round loop records both
// regimes and merges each run on arrival, in one walk (evidence.Merge),
// into whichever evidence consumers are on: the diff channel's
// E_fix/E_rnd and the statistical channel's engine. Without the statistical channel each regime records
// as one chunk; with it, rounds of CheckEvery runs per regime let early
// stop cancel the remaining budget (and feed the live telemetry).
//
// Inputs and per-run seeds are drawn sequentially up front — the
// generator seed first, then the fixed-regime seeds, then the random
// regime's inputs and seeds — and every chunk streams through an ordered
// sink. So for a given seed the recorded runs are identical whatever the
// Runner or worker count, and an early-stopped detection analyzes a
// prefix of precisely the runs the full budget would have recorded.
//
// A fixed-regime run whose trace equals the representative's (cls.Trace,
// resident for the whole class) is released at once and counted: it
// merges as one more copy of cls.Trace (evidence.MergeN), and the copies
// counted in a row merge in one walk, before the next differing run
// merges and at the end of every chunk. So every read between chunks
// sees each run merged, exactly as if each had merged on arrival.
// analyzeClass returns how many fixed runs merged as such copies.
func (d *Detector) analyzeClass(ctx context.Context, p cuda.Program, cls InputClass, gen cuda.InputGen, leaks *leakSet) (int, error) {
	report := leaks.report
	cfg := d.opts.Evidence
	var engine *evidence.Engine
	if cfg.statEnabled() {
		engine = evidence.NewEngine(evidence.Config{TThreshold: cfg.TVLAThreshold, MIBins: cfg.MIBins})
	}
	fixed := &classRegime{span: "record.fixed", r: evidence.Fixed, reqs: make([]RunRequest, d.opts.FixedRuns)}
	random := &classRegime{span: "record.random", r: evidence.Random, reqs: make([]RunRequest, d.opts.RandomRuns)}
	if cfg.diffEnabled() {
		fixed.ev, random.ev = evidence.NewDiff(d.opts.FixedRuns), evidence.NewDiff(d.opts.RandomRuns)
	}
	genRNG := rand.New(rand.NewSource(d.rng.Int63()))
	for i := range fixed.reqs {
		fixed.reqs[i] = RunRequest{Input: cls.Rep, Seed: d.rng.Int63()}
	}
	for i := range random.reqs {
		random.reqs[i] = RunRequest{Input: gen(genRNG), Seed: d.rng.Int63()}
	}

	var (
		mergeTime time.Duration
		merged    int // runs merged for this class, both regimes
		repeats   int // fixed runs merged as copies of cls.Trace
		copies    int // of those, the ones not merged yet
	)
	flush := func() {
		if copies > 0 {
			evidence.MergeN(evidence.Fixed, cls.Trace, fixed.ev, engine, copies)
			copies = 0
		}
	}
	// record streams the regime's next n requests through the runner into
	// its consumers.
	record := func(ctx context.Context, rg *classRegime, n int) error {
		err := d.recordStream(ctx, p, rg.reqs[rg.used:rg.used+n], func(i int, t *trace.ProgramTrace) error {
			// The span feeds owld's latency histograms; mergeTime feeds
			// Report.Stats.EvidenceTime, which must work without a recorder.
			_, msp := obs.Start(ctx, "evidence.merge")
			t0 := time.Now()
			if rg == fixed && cls.Trace != nil && t.Equal(cls.Trace) {
				copies++
				repeats++
			} else {
				flush()
				evidence.Merge(rg.r, t, rg.ev, engine)
			}
			if i == n-1 {
				flush()
			}
			mergeTime += time.Since(t0) // serialized by the sink's window lock
			msp.End()
			trace.Release(t)
			merged++
			obs.Counter(ctx, "evidence_runs", float64(merged))
			d.trackRAM(ctx, report)
			return nil
		})
		if err != nil {
			return err
		}
		rg.used += n
		return nil
	}

	d.setPhase(PhaseRecord)
	rctx, rsp := obs.Start(ctx, "phase.record")
	// Live telemetry wants per-round samples, so an OnEvidence hook (or an
	// attached recorder, for the counter feed) keeps round-sized chunks
	// even without early stopping. Chunking never changes run order or
	// results — only how often the engine is sampled between rounds.
	rounds := engine != nil && (cfg.EarlyStop.Enabled || d.opts.OnEvidence != nil || obs.FromContext(ctx) != nil)
	step := max(d.opts.FixedRuns, d.opts.RandomRuns)
	if rounds {
		step = cfg.EarlyStop.CheckEvery
	}
	var stop stopState
	earlyStopped := false
	for round := 1; !earlyStopped && remaining(fixed, random); round++ {
		for _, rg := range [2]*classRegime{fixed, random} {
			n := min(step, len(rg.reqs)-rg.used)
			if n == 0 {
				continue
			}
			cctx, csp := obs.Start(rctx, rg.span)
			csp.SetInt("runs", int64(n))
			err := record(cctx, rg, n)
			csp.End()
			if err != nil {
				rsp.End()
				return repeats, err
			}
		}
		if rounds {
			earlyStopped = d.checkRound(rctx, engine, &stop, round, fixed, random)
		}
	}
	rsp.SetInt("runs_used", int64(merged))
	rsp.End()

	report.Stats.EvidenceTraces += merged
	report.Stats.EvidenceTime += mergeTime
	if engine != nil {
		report.EvidenceMode = string(cfg.Mode)
		if len(cfg.Channels) > 0 {
			report.Channels = cfg.Channels
		}
		report.RunsBudget += d.opts.FixedRuns + d.opts.RandomRuns
		report.RunsUsed += merged
		if earlyStopped {
			report.EarlyStopped = true
		}
	}

	d.setPhase(PhaseAnalyze)
	t0 := time.Now()
	_, tsp := obs.Start(ctx, "phase.analyze")
	if fixed.ev != nil {
		if err := d.leakageTests(fixed.ev, random.ev, leaks); err != nil {
			tsp.End()
			return repeats, err
		}
	}
	if engine != nil {
		d.applyVerdicts(engine.Verdicts(), merged, leaks)
	}
	tsp.End()
	report.Stats.TestTime += time.Since(t0)
	d.trackRAM(ctx, report)
	return repeats, nil
}

// heapLiveSamples is the reusable runtime/metrics query of trackRAM:
// completed GC cycles, live heap as of the last GC, and the currently
// allocated object bytes as a fallback before the first collection. The
// cycle count is cheap to read; the heap metrics need the runtime to sum
// every P's heap statistics, so trackRAM reads them only when a cycle
// has completed since its last read (live heap changes only then), or
// while no GC has run yet.
var heapLiveSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func (d *Detector) trackRAM(ctx context.Context, report *Report) {
	d.ramMu.Lock()
	defer d.ramMu.Unlock()
	metrics.Read(d.ramSamples[:1])
	if cycles := d.ramSamples[0].Value.Uint64(); cycles == 0 || cycles != d.ramCycles {
		metrics.Read(d.ramSamples[1:])
		d.ramCycles, d.ramLive = cycles, d.ramSamples[1].Value.Uint64()
		if d.ramLive == 0 {
			// No GC cycle yet: fall back to allocated object bytes, an
			// over-approximation (it includes garbage) that only matters
			// for detections small enough never to trigger a collection.
			d.ramLive = d.ramSamples[2].Value.Uint64()
		}
	}
	live := d.ramLive
	if live > report.Stats.PeakAllocBytes {
		report.Stats.PeakAllocBytes = live
	}
	obs.Counter(ctx, "live_heap_bytes", float64(live))
}
