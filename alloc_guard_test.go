package owl_test

// TestWarpInterpAllocsCostOff pins the per-execution allocation counts of
// the untraced fast path, both on one context reset between executions
// (the way a recording goroutine reuses its run state) and on a new
// context per execution (NewContext, as equivalence checking, baselines
// and owlperf's replay use it). A new context allocates the Context and
// Device and grows the event-log, call-stack and allocation-table backing
// arrays a reset context keeps: seven allocations above the reset path
// for aes128 and rsa, nine for jpeg-encode, whose five allocations grow
// its table more often. Device memory comes from the pool and goes back
// to it whole, and the programs' constant tables are copied into it, so
// neither path allocates memory of the device. The microarchitectural
// cost channel rides the same interpreter, so this guard is what keeps cost-off runs
// paying nothing for it: a hook wired into the hot loop unconditionally,
// or a collector allocated per warp regardless of the channel list, shows
// up here as an extra alloc before it shows up as a benchgate regression.
// What remains is the programs' own host work (buffers, launch
// parameters, device-to-host copies).

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/experiments"
	"owl/internal/gpu"
	"owl/internal/trace"
	"owl/internal/tracer"
	"owl/internal/workloads/gpucrypto"
	"owl/internal/workloads/jpeg"
)

func TestWarpInterpAllocsCostOff(t *testing.T) {
	cases := []struct {
		name   string
		prog   func() (cuda.Program, error)
		input  []byte
		allocs float64 // per execution on a reset context
		fresh  float64 // per execution on a new context
	}{
		{
			name:   "aes128",
			prog:   func() (cuda.Program, error) { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)), nil },
			input:  []byte("0123456789abcdef"),
			allocs: 3,
			fresh:  10,
		},
		{
			name:   "rsa",
			prog:   func() (cuda.Program, error) { return gpucrypto.NewRSA(gpucrypto.WithMessages(16)), nil },
			input:  []byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00},
			allocs: 4,
			fresh:  11,
		},
		{
			name: "jpeg-encode",
			prog: func() (cuda.Program, error) {
				enc, err := jpeg.NewEncoder(16, 16)
				return enc, err
			},
			input:  jpeg.SynthImage(16, 16, 1),
			allocs: 7,
			fresh:  16,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.prog()
			if err != nil {
				t.Fatal(err)
			}
			// One context reset for every execution, as a recording
			// goroutine runs them; warm once so pool priming and lazy
			// program caches do not count against the steady state.
			ctx, err := cuda.NewSeededContext(gpu.DefaultConfig(), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Close()
			seed := int64(1)
			run := func() {
				seed++
				if err := ctx.Reset(seed); err != nil {
					t.Fatal(err)
				}
				if err := p.Run(ctx, tc.input); err != nil {
					t.Fatal(err)
				}
			}
			run()
			got := testing.AllocsPerRun(50, run)
			if got != tc.allocs {
				t.Errorf("allocs/exec = %v, want %v (cost-off fast path regressed)", got, tc.allocs)
			}
		})
		t.Run(tc.name+"-new-context", func(t *testing.T) {
			p, err := tc.prog()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			run := func() {
				ctx, err := cuda.NewContext(gpu.DefaultConfig(), rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Run(ctx, tc.input); err != nil {
					t.Fatal(err)
				}
				ctx.Close()
			}
			run() // prime the memory pool and lazy program caches
			if got := testing.AllocsPerRun(50, run); got != tc.fresh {
				t.Errorf("allocs/exec = %v, want %v (cost-off fast path regressed)", got, tc.fresh)
			}
		})
	}
}

// TestTracedRunAllocs pins the allocations of one traced execution on a
// fresh tracer and seeded context, released the way detection releases
// every trace: the whole setup a run on a new run state pays, the
// context's lazily built generator included. The tracer records into a
// released trace and reuses its invocations, graphs, the graphs' warp
// folders and cost sites, and warps fold straight into the invocation
// graph through folders reused from block to block, so the count grows
// with neither the graph nor the warp count. The plain cases read 15-19
// and the cost-on cases 18-19, with the dense cost collector; their limits
// sit 5-9 above, so one allocation added per warp (16 more on the wide
// aes128 cases, 2 on the others) fails both wide cases. nvjpeg/encode
// launches four kernels per run and reads 33-34: a collection that empties the trace pool makes
// the next run build a whole trace again, which weighs more on its four
// graphs than on aes128's one. Its limit of 44 fails a folder or
// transition-state buffer allocated per warp instead of reused.
func TestTracedRunAllocs(t *testing.T) {
	aes := func(blocks int) func() (cuda.Program, []byte) {
		return func() (cuda.Program, []byte) {
			return gpucrypto.NewAES(gpucrypto.WithBlocks(blocks)), []byte("0123456789abcdef")
		}
	}
	cases := []struct {
		name string
		prog func() (cuda.Program, []byte)
		opts []tracer.Option
		max  float64
	}{
		{name: "aes128", prog: aes(64), max: 24},
		{name: "aes128-wide", prog: aes(512), max: 24},
		{name: "aes128-cost", prog: aes(64), opts: []tracer.Option{tracer.WithCost()}, max: 27},
		{name: "aes128-wide-cost", prog: aes(512), opts: []tracer.Option{tracer.WithCost()}, max: 27},
		{
			name: "nvjpeg-encode",
			prog: func() (cuda.Program, []byte) {
				enc, err := jpeg.NewEncoder(16, 16)
				if err != nil {
					t.Fatal(err)
				}
				return enc, jpeg.SynthImage(16, 16, 1)
			},
			max: 44,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, input := tc.prog()
			seed := int64(0)
			run := func() {
				seed++
				tr := tracer.New(p.Name(), tc.opts...)
				ctx, err := cuda.NewSeededContext(gpu.DefaultConfig(), seed, tr)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Run(ctx, input); err != nil {
					t.Fatal(err)
				}
				ctx.Close()
				trace.Release(tr.Trace())
			}
			run() // prime the pools and the decoded-kernel cache
			if got := testing.AllocsPerRun(100, run); got > tc.max {
				t.Errorf("allocs/traced run = %v, want at most %v (per-warp work crept back into the tracer?)", got, tc.max)
			}
		})
	}
}

// TestEvidenceAddRunAllocs pins the allocations of merging one
// random-input aes128 run into evidence whose T-table records have passed
// the small class, the steady state of the random regime. Their
// adcfg.EvidenceHist histograms hold dense counts: one indexed add per
// run cell, with no buffer allocated or widened per run. The per-run
// samples are counted runs, sized by the evidence's run budget when they
// first grow, so they allocate nothing more either. Every run has the
// merged invocation sequence, so its alignment matches it in order
// without the Myers diff or a new merged list, and a merge allocates
// nothing: 0 per run over these 200 merges, under a limit of 0. A merge
// that allocates per dense histogram (its counts reallocated every run)
// reads about 175, one whose samples grow one append at a time read 13
// with the diff, and one that runs the diff on every run reads 5. The
// both-cost case merges each run, recorded with the cost channel, in the
// one walk that feeds the diff evidence and the statistical engine. The
// engine finds its sites by index, reuses its scratch, and folds a
// histogram into an MI estimator that has rebinned without allocating,
// so it adds nothing. The k10 case merges each run as ten counted copies
// in one walk (evidence.MergeN): its histograms scale into the diff's
// scratch, and each sample takes one entry for the ten runs, so it
// allocates what one run does.
func TestEvidenceAddRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		both  bool
		k     int
		limit float64
	}{
		{"diff", false, 1, 0},
		{"both-cost", true, 1, 0},
		{"both-cost-k10", true, 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			var engine *evidence.Engine
			if tc.both {
				opts.Evidence = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
				engine = evidence.NewEngine(evidence.Config{TThreshold: evidence.DefaultTThreshold, MIBins: evidence.DefaultMIBins})
			}
			det, err := core.NewDetector(opts)
			if err != nil {
				t.Fatal(err)
			}
			p := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
			gen, rng := gpucrypto.KeyGen(), rand.New(rand.NewSource(1))
			var runs []*trace.ProgramTrace
			for i := 0; i < 10; i++ {
				tr, err := det.RecordOnce(p, gen(rng))
				if err != nil {
					t.Fatal(err)
				}
				if tc.both && len(tr.Invocations[0].Cost) == 0 {
					t.Fatal("no cost sites recorded")
				}
				runs = append(runs, tr)
			}
			// AllocsPerRun merges once more than it measures.
			ev := evidence.NewDiff(len(runs) + 201*tc.k)
			for _, tr := range runs {
				// The histograms pass the small class, and the MI estimators rebin.
				evidence.Merge(evidence.Random, tr, ev, engine)
			}
			i := 0
			got := testing.AllocsPerRun(200, func() {
				evidence.MergeN(evidence.Random, runs[i%len(runs)], ev, engine, tc.k)
				i++
			})
			if got > tc.limit {
				t.Errorf("allocs/merge = %v, want at most %v (per-site work in the evidence merge?)", got, tc.limit)
			}
		})
	}
}

// TestRecordBatchAllocs pins the allocations per run of the detector's
// own recording path: a core.StreamParallel batch of 64 runs through a
// core.Recipe, one slot, every trace released as the evidence merge
// releases it. The garbage collector is off, so a collection that drains
// the trace pool mid-measurement cannot add noise. A run records into a
// released trace, reusing its invocation, graph and cost sites, so what
// it allocates is the program's own host work (buffers, a call
// closure): three for shmem-leaky, four for the tokenizer. They read
// 3.39 and 4.39 with the batch's own setup spread over its runs. Each
// limit fails one allocation more per run, such as a context, device,
// tracer, launch scratch or trace built per run instead of reset.
func TestRecordBatchAllocs(t *testing.T) {
	cases := []struct {
		name string
		prog string
		cost bool
		max  float64
	}{
		{name: "shmem-leaky-cost", prog: "workloads/shmem-leaky", cost: true, max: 4},
		{name: "tokenize", prog: "media/tokenize", max: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target, err := experiments.FindTarget(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			const runs = 64
			gen := rand.New(rand.NewSource(1))
			reqs := make([]core.RunRequest, runs)
			for i := range reqs {
				reqs[i] = core.RunRequest{Index: i, Input: target.Gen(gen), Seed: gen.Int63()}
			}
			recipe := core.Recipe{Device: gpu.DefaultConfig(), Rebase: true, Cost: tc.cost}
			sink := func(_ context.Context, res core.RunResult) error {
				trace.Release(res.Trace)
				return nil
			}
			batch := func() {
				if err := core.StreamParallel(context.Background(), make(chan struct{}, 1), target.Program, reqs, recipe, sink); err != nil {
					t.Fatal(err)
				}
			}
			batch() // prime the pools and the decoded-kernel cache
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if got := testing.AllocsPerRun(4, batch) / runs; got > tc.max {
				t.Errorf("allocs/run = %v, want at most %v (per-run setup crept back into the recording path?)", got, tc.max)
			}
		})
	}
}
