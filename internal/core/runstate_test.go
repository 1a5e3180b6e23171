package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/experiments"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/trace"
	"owl/internal/tracer"
)

// recordReused records reqs on one run state: core.StreamParallel with one
// slot has one recording goroutine, which resets its state between runs.
// It returns the trace hashes in request order.
func recordReused(t *testing.T, p cuda.Program, recipe core.Recipe, reqs []core.RunRequest) [][32]byte {
	t.Helper()
	hashes := make([][32]byte, len(reqs))
	sink := func(_ context.Context, res core.RunResult) error {
		hashes[res.Index] = res.Trace.Hash()
		trace.Release(res.Trace)
		return nil
	}
	if err := core.StreamParallel(context.Background(), make(chan struct{}, 1), p, reqs, recipe, sink); err != nil {
		t.Fatal(err)
	}
	return hashes
}

// recordFresh records each request on a fresh run state.
func recordFresh(t *testing.T, p cuda.Program, recipe core.Recipe, reqs []core.RunRequest) [][32]byte {
	t.Helper()
	hashes := make([][32]byte, len(reqs))
	for i, req := range reqs {
		tr, err := recipe.Record(context.Background(), p, req.Input, req.Seed)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = tr.Hash()
		trace.Release(tr)
	}
	return hashes
}

// recordEager records each request on an eagerly seeded context: a
// generator seeded up front and handed to cuda.NewContext, which draws
// the ASLR slide from it at once.
func recordEager(t *testing.T, p cuda.Program, recipe core.Recipe, reqs []core.RunRequest) [][32]byte {
	t.Helper()
	var opts []tracer.Option
	if !recipe.Rebase {
		opts = append(opts, tracer.WithoutRebase())
	}
	if recipe.Cost {
		opts = append(opts, tracer.WithCost())
	}
	hashes := make([][32]byte, len(reqs))
	for i, req := range reqs {
		tr := tracer.New(p.Name(), opts...)
		ctx, err := cuda.NewContext(recipe.Device, rand.New(rand.NewSource(req.Seed)), tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(ctx, req.Input); err != nil {
			t.Fatal(err)
		}
		ctx.Close()
		hashes[i] = tr.Trace().Hash()
	}
	return hashes
}

func requests(inputs [][]byte, seeds ...int64) []core.RunRequest {
	reqs := make([]core.RunRequest, len(inputs))
	for i, in := range inputs {
		reqs[i] = core.RunRequest{Index: i, Input: in, Seed: int64(i + 1)}
		if len(seeds) > 0 {
			reqs[i].Seed = seeds[i%len(seeds)]
		}
	}
	return reqs
}

// TestReusedRunStateMatchesFresh checks that a run state reused across a
// batch records exactly what a fresh state records for every run: every
// suite target, with the cost channel off and on, under ASLR with
// rebasing off (the one setting where the seed reaches the trace through
// the slide), and for a program that draws from ctx.Rand, with and
// without ASLR. The last two also match the eagerly seeded
// cuda.NewContext path, so the lazily built generator draws the same
// slide and hands the program the same values.
func TestReusedRunStateMatchesFresh(t *testing.T) {
	targets, err := experiments.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.DefaultConfig()
	for _, tg := range targets {
		gen := rand.New(rand.NewSource(42))
		// User inputs and generated ones, interleaved with repeats so a
		// state resets from a differing run to an equal one and back.
		inputs := append(slices.Clone(tg.Inputs), tg.Gen(gen), tg.Gen(gen))
		inputs = append(inputs, inputs...)
		for _, cost := range []bool{false, true} {
			recipe := core.Recipe{Device: dev, Rebase: true, Cost: cost}
			reqs := requests(inputs)
			reused, fresh := recordReused(t, tg.Program, recipe, reqs), recordFresh(t, tg.Program, recipe, reqs)
			for i := range reqs {
				if reused[i] != fresh[i] {
					t.Errorf("%s cost=%v run %d: reused state traced %x, fresh %x", tg.Program.Name(), cost, i, reused[i][:6], fresh[i][:6])
				}
			}
		}
	}

	// Two batches on one shared slot take turns: a goroutine that finds
	// the slot taken closes its state, and its next run draws a device
	// arena again on the kept context and tracer.
	t.Run("shared-slot", func(t *testing.T) {
		tg := targets[0]
		recipe := core.Recipe{Device: dev, Rebase: true, Cost: true}
		gen := rand.New(rand.NewSource(7))
		var inputs [][]byte
		for range 8 {
			inputs = append(inputs, tg.Gen(gen))
		}
		reqs := requests(inputs)
		want := recordFresh(t, tg.Program, recipe, reqs)
		slots := make(chan struct{}, 1)
		got := make([][][32]byte, 2)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for b := range got {
			got[b] = make([][32]byte, len(reqs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[b] = core.StreamParallel(context.Background(), slots, tg.Program, reqs, recipe, func(_ context.Context, res core.RunResult) error {
					got[b][res.Index] = res.Trace.Hash()
					trace.Release(res.Trace)
					return nil
				})
			}()
		}
		wg.Wait()
		for b := range got {
			if errs[b] != nil {
				t.Fatal(errs[b])
			}
			if !slices.Equal(got[b], want) {
				t.Errorf("batch %d on a shared slot traced differently from fresh states", b)
			}
		}
	})

	// One state records different programs in turn, each run into the
	// trace the last one released: tokenize's single launch, aes128's,
	// nvjpeg's four, and tokenize again. The reference traces are
	// recorded first, each after two collections have emptied the trace
	// pool, and are never released, so each is built from nothing.
	t.Run("cross-program", func(t *testing.T) {
		recipe := core.Recipe{Device: dev, Rebase: true}
		type run struct {
			p     cuda.Program
			input []byte
			want  [32]byte
		}
		var runs []run
		for i, name := range []string{"media/tokenize", "libgpucrypto/aes128", "nvjpeg/encode", "media/tokenize"} {
			tg, err := experiments.FindTarget(name)
			if err != nil {
				t.Fatal(err)
			}
			r := run{p: tg.Program, input: tg.Inputs[i%len(tg.Inputs)]}
			runtime.GC()
			runtime.GC()
			fresh, err := recipe.Record(context.Background(), r.p, r.input, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			r.want = fresh.Hash()
			runs = append(runs, r)
		}
		record, done := core.RunStateRecorder(recipe)
		defer done()
		for i, r := range runs {
			tr, err := record(context.Background(), r.p, r.input, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Hash(); got != r.want {
				t.Errorf("run %d (%s): reused state traced %x, fresh %x", i, r.p.Name(), got[:6], r.want[:6])
			}
			trace.Release(tr)
		}
	})

	aslr := dev
	aslr.ASLR = true
	raw := core.Recipe{Device: aslr, Rebase: false}
	seeds := []int64{11, 999}
	t.Run("aslr-raw", func(t *testing.T) {
		p := storeTidProgram()
		reqs := requests(make([][]byte, 4), seeds...)
		got := recordReused(t, p, raw, reqs)
		if !slices.Equal(got, recordFresh(t, p, raw, reqs)) || !slices.Equal(got, recordEager(t, p, raw, reqs)) {
			t.Error("reused, fresh and eagerly seeded states traced differently under ASLR")
		}
		if got[0] != got[2] || got[1] != got[3] {
			t.Error("one seed traced differently on a reused state")
		}
		if got[0] == got[1] {
			t.Error("seeds 11 and 999 slid allocations alike with rebasing off")
		}
	})
	for _, rc := range []struct {
		name   string
		recipe core.Recipe
	}{
		{"rand", core.Recipe{Device: dev, Rebase: true}},
		{"rand-aslr-raw", raw},
	} {
		t.Run(rc.name, func(t *testing.T) {
			p := randProgram()
			reqs := requests(make([][]byte, 4), seeds...)
			got := recordReused(t, p, rc.recipe, reqs)
			if !slices.Equal(got, recordFresh(t, p, rc.recipe, reqs)) || !slices.Equal(got, recordEager(t, p, rc.recipe, reqs)) {
				t.Error("ctx.Rand drew differently on reused, fresh and eagerly seeded states")
			}
			if got[0] != got[2] || got[0] == got[1] {
				t.Error("ctx.Rand draws do not follow the seed")
			}
		})
	}
}

// kernelProgram allocates a 256-word table and launches one warp of k
// over it; args supplies the launch parameters after the table.
type kernelProgram struct {
	name string
	k    *isa.Kernel
	args func(ctx *cuda.Context) []int64
}

func (p *kernelProgram) Name() string { return p.name }

func (p *kernelProgram) Run(ctx *cuda.Context, _ []byte) error {
	table, err := ctx.Malloc(256)
	if err != nil {
		return err
	}
	params := append([]int64{int64(table)}, p.args(ctx)...)
	return ctx.Launch(p.k, gpu.D1(1), gpu.D1(32), params...)
}

// storeTidProgram stores each lane's tid at table[tid]: its trace
// depends on nothing but the table's address.
func storeTidProgram() cuda.Program {
	b := kbuild.New("store_tid", 1)
	tid := b.Tid()
	b.Store(isa.SpaceGlobal, b.Add(b.Param(0), tid), 0, tid)
	b.Ret()
	return &kernelProgram{name: "store-tid", k: b.MustBuild(), args: func(*cuda.Context) []int64 { return nil }}
}

// randProgram loads table[(tid + off) & 255] twice, each off drawn from
// ctx.Rand, so its trace records the program's draws.
func randProgram() cuda.Program {
	b := kbuild.New("rand_offsets", 3)
	tid := b.Tid()
	for p := 1; p <= 2; p++ {
		idx := b.And(b.Add(tid, b.Param(p)), b.ConstR(255))
		b.Load(isa.SpaceGlobal, b.Add(b.Param(0), idx), 0)
	}
	b.Ret()
	return &kernelProgram{name: "rand-offsets", k: b.MustBuild(), args: func(ctx *cuda.Context) []int64 {
		return []int64{ctx.Rand().Int63n(256), ctx.Rand().Int63n(256)}
	}}
}
