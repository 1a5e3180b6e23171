package simt

// Differential fuzzing of the warp-vectorized interpreter against the
// per-lane reference (ref_test.go): random structured kernels are built
// with kbuild and executed by both, and everything observable must match —
// hook traces (block enters with masks, memory events with addresses),
// memory-visible effects, statistics, and error strings. Run it with
// `make fuzz-simt`; TestInterpMatchesReference replays a fixed batch of
// seeds on every plain `go test`.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"owl/internal/isa"
	"owl/internal/kbuild"
)

// genFuzzKernel builds a random structured kernel: ALU soup over a
// growing register pool, loads and stores across all four spaces,
// possibly-trapping div/mod and parameter reads, shuffles, selects,
// barriers, and nested tid-dependent control flow (so warps diverge).
func genFuzzKernel(r *rand.Rand) (*isa.Kernel, error) {
	b := kbuild.New("fuzz", 2)
	b.SetShared(16)
	pool := []isa.Reg{
		b.ConstR(int64(r.Intn(64))),
		b.ConstR(int64(r.Intn(64)) - 32),
		b.Tid(),
		b.Special(isa.SpecLaneID),
	}
	pick := func() isa.Reg { return pool[r.Intn(len(pool))] }

	aluOps := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMin, isa.OpMax,
		isa.OpCmpEQ, isa.OpCmpNE, isa.OpCmpLT, isa.OpCmpLE, isa.OpCmpGT, isa.OpCmpGE,
	}
	spaces := []isa.Space{isa.SpaceGlobal, isa.SpaceShared, isa.SpaceLocal, isa.SpaceConstant}
	// The param selectors trap at runtime when the launch supplies fewer
	// than two arguments, exercising the lazy-error path.
	sels := []int64{
		isa.SpecTidX, isa.SpecTidY, isa.SpecCtaidX, isa.SpecNtidX,
		isa.SpecNctaidX, isa.SpecWarpID, isa.SpecLaneID, isa.SpecGlobalTid,
		isa.SpecParamBase, isa.SpecParamBase + 1,
	}

	var gen func(depth, stmts int)
	gen = func(depth, stmts int) {
		for s := 0; s < stmts; s++ {
			switch r.Intn(12) {
			case 0, 1, 2, 3:
				pool = append(pool, b.BinR(aluOps[r.Intn(len(aluOps))], pick(), pick()))
			case 4: // may trap on a zero divisor — both interpreters must agree
				if r.Intn(2) == 0 {
					pool = append(pool, b.Div(pick(), pick()))
				} else {
					pool = append(pool, b.Mod(pick(), pick()))
				}
			case 5, 6:
				space := spaces[r.Intn(len(spaces))]
				addr := b.BinR(isa.OpAnd, pick(), b.ConstR(31))
				if space != isa.SpaceConstant && r.Intn(2) == 0 {
					b.Store(space, addr, int64(r.Intn(4)), pick())
				} else {
					pool = append(pool, b.Load(space, addr, int64(r.Intn(4))))
				}
			case 7:
				if r.Intn(2) == 0 {
					pool = append(pool, b.Select(pick(), pick(), pick()))
				} else {
					pool = append(pool, b.Shfl(pick(), pick()))
				}
			case 8:
				if depth < 3 {
					cond := b.CmpLT(pick(), pick())
					if r.Intn(2) == 0 {
						b.If(cond,
							func() { gen(depth+1, 1+r.Intn(3)) },
							func() { gen(depth+1, 1+r.Intn(3)) })
					} else {
						b.If(cond, func() { gen(depth+1, 1+r.Intn(3)) }, nil)
					}
				}
			case 9:
				if depth < 2 {
					b.ForConst(0, int64(1+r.Intn(4)), func(i isa.Reg) {
						pool = append(pool, i)
						gen(depth+1, 1+r.Intn(3))
					})
				}
			case 10: // a barrier in divergent flow must trap identically
				b.Barrier()
			case 11:
				pool = append(pool, b.Special(sels[r.Intn(len(sels))]))
			}
		}
	}
	gen(0, 6+r.Intn(10))

	// Spill a sample of the pool so register effects are memory-visible.
	for i := 0; i < 8; i++ {
		b.Store(isa.SpaceGlobal, b.ConstR(int64(100+i)), 0, pick())
	}
	return b.Build()
}

// checkInterpEquivalence executes one generated kernel on both
// interpreters and fails the test on any observable difference.
func checkInterpEquivalence(t *testing.T, seed int64, nlRaw uint8, nParams uint8, p0, p1 int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	k, err := genFuzzKernel(r)
	if err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatalf("seed %d: executor: %v", seed, err)
	}

	wp := fullWarp()
	wp.Lanes = wp.Lanes[:1+int(nlRaw)%WarpWidth]
	wp.Params = []int64{p0, p1}[:int(nParams)%3] // 0..2 params, so reads may trap
	wp.BlockIdx = [3]int{int(seed & 3), 0, 0}

	memNew, memRef := newMapMem(), newMapMem()
	for i := int64(0); i < 32; i++ { // shared constant table
		memNew.consts[i] = i * 3
		memRef.consts[i] = i * 3
	}
	hNew, hRef := &recHooks{}, &recHooks{}

	stNew, errNew := runWarp(exec, wp, memNew, hNew)
	stRef, errRef := refRunWarp(exec, wp, memRef, hRef)

	if (errNew == nil) != (errRef == nil) ||
		(errNew != nil && errNew.Error() != errRef.Error()) {
		t.Fatalf("seed %d: error mismatch:\n  vectorized: %v\n  reference:  %v", seed, errNew, errRef)
	}
	if stNew != stRef {
		t.Fatalf("seed %d: stats mismatch: vectorized %+v, reference %+v", seed, stNew, stRef)
	}
	if !reflect.DeepEqual(hNew.blocks, hRef.blocks) || !reflect.DeepEqual(hNew.masks, hRef.masks) {
		t.Fatalf("seed %d: block trace mismatch:\n  vectorized: %v %v\n  reference:  %v %v",
			seed, hNew.blocks, hNew.masks, hRef.blocks, hRef.masks)
	}
	if !reflect.DeepEqual(hNew.mems, hRef.mems) {
		t.Fatalf("seed %d: memory trace mismatch:\n  vectorized: %v\n  reference:  %v",
			seed, hNew.mems, hRef.mems)
	}
	for name, pair := range map[string][2]map[int64]int64{
		"global": {memNew.global, memRef.global},
		"shared": {memNew.shared, memRef.shared},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("seed %d: %s memory mismatch:\n  vectorized: %v\n  reference:  %v",
				seed, name, pair[0], pair[1])
		}
	}
	if !reflect.DeepEqual(memNew.local, memRef.local) {
		t.Fatalf("seed %d: local memory mismatch:\n  vectorized: %v\n  reference:  %v",
			seed, memNew.local, memRef.local)
	}
}

// blockWarpParams builds the per-warp launch parameters of one thread
// block of nW warps, as the GPU launch layer would: warp w covers
// threads [w*32, w*32+lanes), all warps sharing block geometry. lastLanes
// trims the final warp (0 keeps it full).
func blockWarpParams(nW, lastLanes int, params []int64, blockIdx int) []WarpParams {
	wps := make([]WarpParams, nW)
	for w := 0; w < nW; w++ {
		nl := WarpWidth
		if w == nW-1 && lastLanes > 0 {
			nl = lastLanes
		}
		lanes := make([]LaneInfo, nl)
		for l := range lanes {
			tid := w*WarpWidth + l
			lanes[l] = LaneInfo{Tid: [3]int{tid, 0, 0}, GlobalID: tid}
		}
		wps[w] = WarpParams{
			WarpID:   w,
			BlockDim: [3]int{nW * WarpWidth, 1, 1},
			GridDim:  [3]int{1, 1, 1},
			BlockIdx: [3]int{blockIdx, 0, 0},
			Lanes:    lanes,
			Params:   params,
		}
	}
	return wps
}

// checkBlockInterpEquivalence executes one generated kernel as a whole
// multi-warp block through BlockRun and through the per-lane reference's
// rounds schedule, and fails on any observable difference in errors,
// stats, shared, global and local memory. traced attaches hooks to every
// warp and trims the last one, so event order and partial warps are
// checked too; untraced full-width blocks skip the address-buffer
// bookkeeping, the path every untraced launch takes.
func checkBlockInterpEquivalence(t *testing.T, seed int64, nWarpsRaw, nlRaw, nParams uint8, p0, p1 int64, traced bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	k, err := genFuzzKernel(r)
	if err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatalf("seed %d: executor: %v", seed, err)
	}

	nW := 2 + int(nWarpsRaw)%3 // 2..4 resident warps
	lastLanes := 0
	if traced {
		lastLanes = 1 + int(nlRaw)%WarpWidth
	}
	params := []int64{p0, p1}[:int(nParams)%3]
	wps := blockWarpParams(nW, lastLanes, params, int(seed&3))

	// All warps of a block share one memory (global, shared, constant);
	// the reference gets an identical private copy.
	memNew, memRef := newMapMem(), newMapMem()
	for i := int64(0); i < 32; i++ {
		memNew.consts[i] = i * 3
		memRef.consts[i] = i * 3
	}
	mems := make([]Memory, nW)
	memsRef := make([]Memory, nW)
	hooks := make([]Hooks, nW)
	hooksRef := make([]Hooks, nW)
	for w := 0; w < nW; w++ {
		mems[w], memsRef[w] = memNew, memRef
		if traced {
			hooks[w], hooksRef[w] = &recHooks{}, &recHooks{}
		}
	}

	br, err := exec.NewBlockRun(wps, mems, hooks)
	if err != nil {
		t.Fatalf("seed %d: block run: %v", seed, err)
	}
	errNew := br.Run(nil)
	stNew := make([]Stats, nW)
	for w := 0; w < nW; w++ {
		stNew[w] = br.WarpStats(w)
	}
	br.Release()

	stRef, errRef := refRunBlock(exec, wps, memsRef, hooksRef)

	if (errNew == nil) != (errRef == nil) ||
		(errNew != nil && errNew.Error() != errRef.Error()) {
		t.Fatalf("seed %d (%d warps, traced=%v): error mismatch:\n  block:     %v\n  reference: %v",
			seed, nW, traced, errNew, errRef)
	}
	for w := 0; w < nW; w++ {
		if stNew[w] != stRef[w] {
			t.Fatalf("seed %d (%d warps, traced=%v): warp %d stats mismatch: block %+v, reference %+v",
				seed, nW, traced, w, stNew[w], stRef[w])
		}
	}
	if traced {
		for w := 0; w < nW; w++ {
			hN, hR := hooks[w].(*recHooks), hooksRef[w].(*recHooks)
			if !reflect.DeepEqual(hN.blocks, hR.blocks) || !reflect.DeepEqual(hN.masks, hR.masks) {
				t.Fatalf("seed %d: warp %d block trace mismatch:\n  block:     %v %v\n  reference: %v %v",
					seed, w, hN.blocks, hN.masks, hR.blocks, hR.masks)
			}
			if !reflect.DeepEqual(hN.mems, hR.mems) {
				t.Fatalf("seed %d: warp %d memory trace mismatch:\n  block:     %v\n  reference: %v",
					seed, w, hN.mems, hR.mems)
			}
		}
	}
	for name, pair := range map[string][2]map[int64]int64{
		"global": {memNew.global, memRef.global},
		"shared": {memNew.shared, memRef.shared},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("seed %d (%d warps, traced=%v): %s memory mismatch:\n  block:     %v\n  reference: %v",
				seed, nW, traced, name, pair[0], pair[1])
		}
	}
	if !reflect.DeepEqual(memNew.local, memRef.local) {
		t.Fatalf("seed %d: local memory mismatch:\n  block:     %v\n  reference: %v",
			seed, memNew.local, memRef.local)
	}
}

// FuzzInterpEquivalence is the open-ended fuzz entry: `make fuzz-simt`.
// Every input is checked three ways: single warp against the per-lane
// reference, and a multi-warp block — traced (hook order included) and
// untraced — against the reference's rounds schedule.
func FuzzInterpEquivalence(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(31), uint8(2), int64(7), int64(1), uint8(seed))
		f.Add(seed, uint8(seed), uint8(seed), -seed, seed<<32, uint8(seed*3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nlRaw uint8, nParams uint8, p0, p1 int64, nWarpsRaw uint8) {
		checkInterpEquivalence(t, seed, nlRaw, nParams, p0, p1)
		checkBlockInterpEquivalence(t, seed, nWarpsRaw, nlRaw, nParams, p0, p1, true)
		checkBlockInterpEquivalence(t, seed, nWarpsRaw, nlRaw, nParams, p0, p1, false)
	})
}

// TestInterpMatchesReference replays a fixed batch of fuzz seeds on every
// test run, so interpreter/reference divergence is caught without a
// dedicated fuzzing pass.
func TestInterpMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkInterpEquivalence(t, seed, uint8(seed*7), uint8(seed), seed-5, seed*11)
	}
}

// TestBlockInterpMatchesReference replays multi-warp fuzz seeds on every
// test run: traced blocks pin the rounds schedule's hook order, untraced
// blocks pin the path without address-buffer bookkeeping.
func TestBlockInterpMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		checkBlockInterpEquivalence(t, seed, uint8(seed), uint8(seed*7), uint8(seed), seed-5, seed*11, true)
		checkBlockInterpEquivalence(t, seed, uint8(seed), uint8(seed*7), uint8(seed), seed-5, seed*11, false)
	}
}

// sliceMem is a DirectMemory test double backed by plain slices.
type sliceMem struct {
	global, shared, consts []int64
	local                  LocalSpace
}

func (m *sliceMem) Direct() Direct {
	return Direct{Global: m.global, Constant: m.consts, Shared: m.shared, Local: &m.local}
}

func (m *sliceMem) Load(space isa.Space, lane int, addr int64) (int64, error) {
	switch space {
	case isa.SpaceGlobal:
		if addr < 0 || addr >= int64(len(m.global)) {
			return 0, fmt.Errorf("global load at %d out of range", addr)
		}
		return m.global[addr], nil
	case isa.SpaceShared:
		if addr < 0 || addr >= int64(len(m.shared)) {
			return 0, fmt.Errorf("shared load at %d out of range", addr)
		}
		return m.shared[addr], nil
	case isa.SpaceConstant:
		if addr < 0 || addr >= int64(len(m.consts)) {
			return 0, fmt.Errorf("constant load at %d out of range", addr)
		}
		return m.consts[addr], nil
	case isa.SpaceLocal:
		return m.local.Load(lane, addr), nil
	}
	return 0, fmt.Errorf("bad space")
}

func (m *sliceMem) Store(space isa.Space, lane int, addr, v int64) error {
	switch space {
	case isa.SpaceGlobal:
		if addr < 0 || addr >= int64(len(m.global)) {
			return fmt.Errorf("global store at %d out of range", addr)
		}
		m.global[addr] = v
	case isa.SpaceShared:
		if addr < 0 || addr >= int64(len(m.shared)) {
			return fmt.Errorf("shared store at %d out of range", addr)
		}
		m.shared[addr] = v
	case isa.SpaceLocal:
		m.local.Store(lane, addr, v)
	default:
		return fmt.Errorf("bad space %v", space)
	}
	return nil
}

// TestDirectMatchesInterface runs the fuzz kernels a third time with a
// DirectMemory backing and checks the direct fast paths against the
// interface path of the same interpreter.
func TestDirectMatchesInterface(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		k, err := genFuzzKernel(r)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := NewExecutor(k)
		if err != nil {
			t.Fatal(err)
		}
		wp := fullWarp(7, 1)

		direct := &sliceMem{
			global: make([]int64, 256),
			shared: make([]int64, 64),
			consts: make([]int64, 64),
		}
		indirect := newMapMem()
		for i := int64(0); i < 64; i++ {
			direct.consts[i] = i * 3
			indirect.consts[i] = i * 3
		}
		hD, hI := &recHooks{}, &recHooks{}
		stD, errD := runWarp(exec, wp, direct, hD)
		stI, errI := runWarp(exec, wp, indirect, hI)
		if (errD == nil) != (errI == nil) {
			t.Fatalf("seed %d: error mismatch: direct %v, interface %v", seed, errD, errI)
		}
		if errD != nil {
			continue // diagnostics legitimately differ between memories
		}
		if stD != stI {
			t.Fatalf("seed %d: stats mismatch: direct %+v, interface %+v", seed, stD, stI)
		}
		if !reflect.DeepEqual(hD.blocks, hI.blocks) || !reflect.DeepEqual(hD.mems, hI.mems) {
			t.Fatalf("seed %d: trace mismatch between direct and interface paths", seed)
		}
		for a, v := range indirect.global {
			if a >= 0 && a < int64(len(direct.global)) && direct.global[a] != v {
				t.Fatalf("seed %d: global[%d] = %d direct, %d interface", seed, a, direct.global[a], v)
			}
		}
	}
}

// TestWarpLoopSteadyStateAllocs pins the tentpole's allocation claim: once
// the pools are warm, running a whole warp — setup, a multi-block loop
// with memory traffic, teardown — allocates nothing.
func TestWarpLoopSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of recycled blocks, so no steady state exists")
	}
	b := kbuild.New("steady", 0)
	acc := b.ConstR(0)
	b.ForConst(0, 64, func(i isa.Reg) {
		v := b.Load(isa.SpaceGlobal, b.BinR(isa.OpAnd, i, b.ConstR(31)), 0)
		b.Bin(isa.OpAdd, acc, acc, v)
		b.Store(isa.SpaceShared, b.BinR(isa.OpAnd, i, b.ConstR(15)), 0, acc)
	})
	b.Store(isa.SpaceGlobal, b.ConstR(40), 0, acc)
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	mem := &sliceMem{global: make([]int64, 64), shared: make([]int64, 16)}
	wp := fullWarp()
	run := func() {
		if _, err := runWarp(exec, wp, mem, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("steady-state warp loop allocates %.1f times per run, want 0", avg)
	}
}

// TestBlockRunSteadyStateAllocs extends the steady-state claim to whole
// blocks: once the pools are warm, preparing, running, and releasing a
// multi-warp block — register windows, warp runs, scratch — allocates
// nothing, with and without barriers between the warps.
func TestBlockRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation disables inlining, defeating the escape analysis behind the zero-alloc claim")
	}
	// ALU loop over global loads with the result spilled to per-thread
	// local memory: each warp runs to retirement in one round.
	bPlain := kbuild.New("steady_no_barrier", 0)
	accP := bPlain.ConstR(0)
	bPlain.ForConst(0, 64, func(i isa.Reg) {
		v := bPlain.Load(isa.SpaceGlobal, bPlain.BinR(isa.OpAnd, i, bPlain.ConstR(31)), 0)
		bPlain.Bin(isa.OpAdd, accP, accP, v)
	})
	bPlain.Store(isa.SpaceLocal, bPlain.ConstR(0), 0, accP)

	// Shared-memory stores and a barrier per iteration: every warp
	// suspends and resumes once per loop trip.
	bBar := kbuild.New("steady_shared_barrier", 0)
	accB := bBar.ConstR(0)
	bBar.ForConst(0, 64, func(i isa.Reg) {
		v := bBar.Load(isa.SpaceGlobal, bBar.BinR(isa.OpAnd, i, bBar.ConstR(31)), 0)
		bBar.Bin(isa.OpAdd, accB, accB, v)
		bBar.Store(isa.SpaceShared, bBar.BinR(isa.OpAnd, i, bBar.ConstR(15)), 0, accB)
		bBar.Barrier()
	})
	bBar.Store(isa.SpaceGlobal, bBar.ConstR(40), 0, accB)

	for _, tc := range []struct {
		name string
		b    *kbuild.Builder
	}{{"no_barrier", bPlain}, {"shared_barrier", bBar}} {
		t.Run(tc.name, func(t *testing.T) {
			k, err := tc.b.Build()
			if err != nil {
				t.Fatal(err)
			}
			exec, err := NewExecutor(k)
			if err != nil {
				t.Fatal(err)
			}
			const nW = 4
			mem := &sliceMem{global: make([]int64, 64), shared: make([]int64, 16)}
			wps := blockWarpParams(nW, 0, nil, 0)
			mems := make([]Memory, nW)
			for w := range mems {
				mems[w] = mem
			}
			hooks := make([]Hooks, nW)
			run := func() {
				br, err := exec.NewBlockRun(wps, mems, hooks)
				if err != nil {
					t.Fatal(err)
				}
				if err := br.Run(nil); err != nil {
					t.Fatal(err)
				}
				br.Release()
			}
			run() // warm the pools
			if avg := testing.AllocsPerRun(50, run); avg != 0 {
				t.Errorf("steady-state block run allocates %.1f times per run, want 0", avg)
			}
		})
	}
}

// TestBlockRunReusesRegisterWindows runs blocks of different widths
// through one pooled BlockRun buffer that an earlier kernel left dirty.
// The kernel under test reads a register that only one side of a
// divergent branch writes, and its other slots are all written before
// any read, so a reused buffer takes the partial clear of clearOffs in
// each warp's window. Each block's global memory must equal the per-lane
// reference's, which starts every register at zero.
func TestBlockRunReusesRegisterWindows(t *testing.T) {
	// dirty writes every slot of every lane, nonzero except lane 0's id.
	bd := kbuild.New("dirty", 0)
	lane := bd.Special(isa.SpecLaneID)
	sum := bd.AddImm(lane, 1)
	for i := 0; i < 24; i++ {
		sum = bd.Add(sum, bd.AddImm(lane, int64(i+1)))
	}
	bd.Store(isa.SpaceGlobal, bd.Tid(), 0, sum)

	// u is written only by lanes whose parity equals param 0; the other
	// lanes read it unwritten after reconvergence.
	b := kbuild.New("window_clear", 1)
	tid := b.Tid()
	u := b.Reg()
	b.If(b.CmpEQ(b.And(tid, b.ConstR(1)), b.Param(0)), func() {
		b.Bin(isa.OpAdd, u, tid, b.ConstR(100))
	}, nil)
	acc := b.AddImm(tid, 1)
	for i := 0; i < 8; i++ {
		acc = b.Xor(b.AddImm(acc, int64(i+2)), tid)
	}
	b.Store(isa.SpaceGlobal, tid, 0, b.Add(acc, u))

	execOf := func(b *kbuild.Builder) *Executor {
		k, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		exec, err := NewExecutor(k)
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}
	dirty, exec := execOf(bd), execOf(b)
	if n := len(exec.clearOffs); n == 0 || 2*n >= exec.numSlots {
		t.Fatalf("kernel clears %d of %d slots; want a small nonzero share", n, exec.numSlots)
	}
	if dirty.numSlots < exec.numSlots {
		t.Fatalf("dirty kernel has %d slots, fewer than the %d it must cover", dirty.numSlots, exec.numSlots)
	}

	// run executes one untraced nW-warp block and returns its memory and
	// the first address of its register buffer.
	run := func(e *Executor, nW int, params []int64) (*mapMem, *int64) {
		t.Helper()
		mem := newMapMem()
		wps := blockWarpParams(nW, 0, params, 0)
		mems := make([]Memory, nW)
		for w := range mems {
			mems[w] = mem
		}
		br, err := e.NewBlockRun(wps, mems, make([]Hooks, nW))
		if err != nil {
			t.Fatal(err)
		}
		base := &br.regs[0]
		if err := br.Run(nil); err != nil {
			t.Fatal(err)
		}
		br.Release()
		return mem, base
	}

	reused := 0
	for step, c := range []struct {
		nW     int
		parity int64
	}{{4, 0}, {2, 1}, {4, 0}} {
		params := []int64{c.parity}
		_, dirtyBase := run(dirty, 4, nil)
		mem, base := run(exec, c.nW, params)
		if base == dirtyBase {
			reused++
		}
		wps := blockWarpParams(c.nW, 0, params, 0)
		ref := newMapMem()
		mems := make([]Memory, c.nW)
		for w := range mems {
			mems[w] = ref
		}
		if _, err := refRunBlock(exec, wps, mems, make([]Hooks, c.nW)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mem.global, ref.global) {
			t.Fatalf("step %d (%d warps): global memory mismatch:\n  block:     %v\n  reference: %v",
				step, c.nW, mem.global, ref.global)
		}
	}
	if reused == 0 && !raceEnabled {
		t.Fatal("no block reused the dirty kernel's register buffer; the partial clear never ran")
	}
}
