package owl_test

// TestWarpInterpAllocsCostOff pins the per-execution allocation counts of
// the untraced fast path. The microarchitectural cost channel rides the
// same interpreter, so this guard is what keeps cost-off runs paying
// nothing for it: a hook wired into the hot loop unconditionally, or a
// collector allocated per warp regardless of the channel list, shows up
// here as an extra alloc before it shows up as a benchgate regression.

import (
	"math/rand"
	"testing"

	"owl/internal/core"
	"owl/internal/cuda"
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
		allocs float64
	}{
		{
			name:   "aes128",
			prog:   func() (cuda.Program, error) { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)), nil },
			input:  []byte("0123456789abcdef"),
			allocs: 5,
		},
		{
			name:   "rsa",
			prog:   func() (cuda.Program, error) { return gpucrypto.NewRSA(gpucrypto.WithMessages(16)), nil },
			input:  []byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00},
			allocs: 6,
		},
		{
			name: "jpeg-encode",
			prog: func() (cuda.Program, error) {
				enc, err := jpeg.NewEncoder(16, 16)
				return enc, err
			},
			input:  jpeg.SynthImage(16, 16, 1),
			allocs: 13,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.prog()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			// Warm once so pool priming and lazy program caches do not
			// count against the steady state.
			warm, err := cuda.NewContext(gpu.DefaultConfig(), rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(warm, tc.input); err != nil {
				t.Fatal(err)
			}
			warm.Close()
			got := testing.AllocsPerRun(50, func() {
				ctx, err := cuda.NewContext(gpu.DefaultConfig(), rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Run(ctx, tc.input); err != nil {
					t.Fatal(err)
				}
				ctx.Close()
			})
			if got != tc.allocs {
				t.Errorf("allocs/exec = %v, want %v (cost-off fast path regressed)", got, tc.allocs)
			}
		})
	}
}

// TestTracedRunAllocs pins the allocations of one traced execution,
// recorded and released the way detection records every run. Warps fold
// straight into the invocation graph through pooled folders reused from
// block to block, so the count does not grow with the warp count: a
// per-warp graph or folder adds several allocations per warp (16 warps on
// the wide aes128 cases, 2 on the others) and fails the wide plain case,
// whose limit sits 20 above its steady state of 23-24. The cost-on cases
// read 27-29 with the dense cost collector; both limits sit 11-13 above
// that, like the narrow plain case's, so one allocation added per warp
// (16 more) fails the wide cost case. The aes128 limits sit above the
// steady state because a collection that empties the graph pools makes
// the next runs refill them. nvjpeg/encode launches four kernels per
// run; its limit sits a few allocations above its steady state of 77-78,
// so a folder or transition-state buffer allocated per launch instead of
// pooled fails it.
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
		{name: "aes128", prog: aes(64), max: 36},
		{name: "aes128-wide", prog: aes(512), max: 44},
		{name: "aes128-cost", prog: aes(64), opts: []tracer.Option{tracer.WithCost()}, max: 40},
		{name: "aes128-wide-cost", prog: aes(512), opts: []tracer.Option{tracer.WithCost()}, max: 40},
		{
			name: "nvjpeg-encode",
			prog: func() (cuda.Program, []byte) {
				enc, err := jpeg.NewEncoder(16, 16)
				if err != nil {
					t.Fatal(err)
				}
				return enc, jpeg.SynthImage(16, 16, 1)
			},
			max: 80,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, input := tc.prog()
			rng := rand.New(rand.NewSource(1))
			run := func() {
				tr := tracer.New(p.Name(), tc.opts...)
				ctx, err := cuda.NewContext(gpu.DefaultConfig(), rng, tr)
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
// run cell, with no buffer allocated or widened per run. What remains is
// the run's alignment and bookkeeping (the Myers diff, the merged
// invocation list) and the amortized growth of the per-run feature
// vectors: 15 per run over these 200 merges. A merge that allocates per
// dense histogram (its counts reallocated every run) reads about 175.
func TestEvidenceAddRunAllocs(t *testing.T) {
	const limit = 15
	det, err := core.NewDetector(core.DefaultOptions())
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
		runs = append(runs, tr)
	}
	ev := core.NewEvidence()
	for _, tr := range runs {
		ev.AddRun(tr) // the histograms pass the small class
	}
	i := 0
	got := testing.AllocsPerRun(200, func() {
		ev.AddRun(runs[i%len(runs)])
		i++
	})
	if got > limit {
		t.Errorf("allocs/AddRun = %v, want at most %v (per-histogram work in the evidence merge?)", got, limit)
	}
}
