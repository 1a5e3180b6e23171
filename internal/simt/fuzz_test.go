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
// trims the final warp (0 keeps it full), which disqualifies lockstep.
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
// multi-warp block on the block-batched driver and on the per-lane
// reference's rounds schedule, and fails on any observable difference —
// including after mid-flight lockstep fallbacks. traced attaches hooks
// to every warp (forcing the rounds driver and checking event order);
// untraced full-width blocks are lockstep-eligible, so this is the path
// that differentially exercises the batched fast path against shared-
// memory traffic and barriers.
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
		t.Fatalf("seed %d (%d warps, traced=%v): error mismatch:\n  batched:   %v\n  reference: %v",
			seed, nW, traced, errNew, errRef)
	}
	for w := 0; w < nW; w++ {
		if stNew[w] != stRef[w] {
			t.Fatalf("seed %d (%d warps, traced=%v): warp %d stats mismatch: batched %+v, reference %+v",
				seed, nW, traced, w, stNew[w], stRef[w])
		}
	}
	if traced {
		for w := 0; w < nW; w++ {
			hN, hR := hooks[w].(*recHooks), hooksRef[w].(*recHooks)
			if !reflect.DeepEqual(hN.blocks, hR.blocks) || !reflect.DeepEqual(hN.masks, hR.masks) {
				t.Fatalf("seed %d: warp %d block trace mismatch:\n  batched:   %v %v\n  reference: %v %v",
					seed, w, hN.blocks, hN.masks, hR.blocks, hR.masks)
			}
			if !reflect.DeepEqual(hN.mems, hR.mems) {
				t.Fatalf("seed %d: warp %d memory trace mismatch:\n  batched:   %v\n  reference: %v",
					seed, w, hN.mems, hR.mems)
			}
		}
	}
	for name, pair := range map[string][2]map[int64]int64{
		"global": {memNew.global, memRef.global},
		"shared": {memNew.shared, memRef.shared},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("seed %d (%d warps, traced=%v): %s memory mismatch:\n  batched:   %v\n  reference: %v",
				seed, nW, traced, name, pair[0], pair[1])
		}
	}
	if !reflect.DeepEqual(memNew.local, memRef.local) {
		t.Fatalf("seed %d: local memory mismatch:\n  batched:   %v\n  reference: %v",
			seed, memNew.local, memRef.local)
	}
}

// FuzzInterpEquivalence is the open-ended fuzz entry: `make fuzz-simt`.
// Every input is checked three ways: single warp against the per-lane
// reference, and a multi-warp block — traced (rounds schedule, hook
// order included) and untraced (lockstep-eligible) — against the
// reference's rounds schedule.
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
// blocks pin the lockstep fast path and its mid-flight fallbacks.
func TestBlockInterpMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		checkBlockInterpEquivalence(t, seed, uint8(seed), uint8(seed*7), uint8(seed), seed-5, seed*11, true)
		checkBlockInterpEquivalence(t, seed, uint8(seed), uint8(seed*7), uint8(seed), seed-5, seed*11, false)
	}
}

// TestBlockBatchOffMatchesOn checks that with the lockstep driver
// disabled process-wide, a block produces identical memory and
// statistics through the rounds driver.
func TestBlockBatchOffMatchesOn(t *testing.T) {
	defer blockBatch.Store(true)
	for seed := int64(0); seed < 60; seed++ {
		blockBatch.Store(true)
		memOn := blockRunForSeed(t, seed, true)
		blockBatch.Store(false)
		memOff := blockRunForSeed(t, seed, false)
		if !reflect.DeepEqual(memOn.global, memOff.global) ||
			!reflect.DeepEqual(memOn.shared, memOff.shared) {
			t.Fatalf("seed %d: block-batch on/off memory mismatch", seed)
		}
	}
}

// blockRunForSeed executes one generated kernel as an untraced 4-warp
// block under the current block-batch setting and returns its memory.
func blockRunForSeed(t *testing.T, seed int64, expectBatch bool) *mapMem {
	t.Helper()
	if blockBatch.Load() != expectBatch {
		t.Fatalf("seed %d: block batch enabled = %v, want %v", seed, blockBatch.Load(), expectBatch)
	}
	r := rand.New(rand.NewSource(seed))
	k, err := genFuzzKernel(r)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	wps := blockWarpParams(4, 0, []int64{seed, seed * 3}, 0)
	mem := newMapMem()
	for i := int64(0); i < 32; i++ {
		mem.consts[i] = i * 3
	}
	mems := make([]Memory, len(wps))
	for w := range mems {
		mems[w] = mem
	}
	br, err := exec.NewBlockRun(wps, mems, make([]Hooks, len(wps)))
	if err != nil {
		t.Fatal(err)
	}
	_ = br.Run(nil) // errors are fine; on/off must still agree on memory
	br.Release()
	return mem
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

// TestBlockRunSteadyStateAllocs extends the steady-state claim to the
// block-batched driver: once its pools are warm, preparing, running, and
// releasing a whole multi-warp block — register file, warp runs, scratch
// — allocates nothing, on both the lockstep and the rounds path.
func TestBlockRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation disables inlining, defeating the escape analysis behind the zero-alloc claim")
	}
	// Lockstep-eligible: ALU loop over global loads with the result spilled
	// to per-thread local memory — no cross-warp-visible stores at all.
	bLock := kbuild.New("steady_lockstep", 0)
	accL := bLock.ConstR(0)
	bLock.ForConst(0, 64, func(i isa.Reg) {
		v := bLock.Load(isa.SpaceGlobal, bLock.BinR(isa.OpAnd, i, bLock.ConstR(31)), 0)
		bLock.Bin(isa.OpAdd, accL, accL, v)
	})
	bLock.Store(isa.SpaceLocal, bLock.ConstR(0), 0, accL)

	// Rounds-forcing: shared-memory stores make the kernel lockstep-unsafe.
	bRounds := kbuild.New("steady_rounds", 0)
	accR := bRounds.ConstR(0)
	bRounds.ForConst(0, 64, func(i isa.Reg) {
		v := bRounds.Load(isa.SpaceGlobal, bRounds.BinR(isa.OpAnd, i, bRounds.ConstR(31)), 0)
		bRounds.Bin(isa.OpAdd, accR, accR, v)
		bRounds.Store(isa.SpaceShared, bRounds.BinR(isa.OpAnd, i, bRounds.ConstR(15)), 0, accR)
		bRounds.Barrier()
	})
	bRounds.Store(isa.SpaceGlobal, bRounds.ConstR(40), 0, accR)

	for _, tc := range []struct {
		name string
		b    *kbuild.Builder
	}{{"lockstep", bLock}, {"rounds", bRounds}} {
		t.Run(tc.name, func(t *testing.T) {
			k, err := tc.b.Build()
			if err != nil {
				t.Fatal(err)
			}
			exec, err := NewExecutor(k)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "lockstep" && !exec.lockstepSafe {
				t.Fatal("lockstep kernel not lockstep-safe")
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
