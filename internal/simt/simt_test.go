package simt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"owl/internal/isa"
	"owl/internal/kbuild"
)

// mapMem is a test memory: one flat map per space (locals keyed by lane).
type mapMem struct {
	global map[int64]int64
	shared map[int64]int64
	consts map[int64]int64
	local  map[[2]int64]int64
}

func newMapMem() *mapMem {
	return &mapMem{
		global: make(map[int64]int64),
		shared: make(map[int64]int64),
		consts: make(map[int64]int64),
		local:  make(map[[2]int64]int64),
	}
}

func (m *mapMem) Load(space isa.Space, lane int, addr int64) (int64, error) {
	switch space {
	case isa.SpaceGlobal:
		return m.global[addr], nil
	case isa.SpaceShared:
		return m.shared[addr], nil
	case isa.SpaceConstant:
		return m.consts[addr], nil
	case isa.SpaceLocal:
		return m.local[[2]int64{int64(lane), addr}], nil
	}
	return 0, fmt.Errorf("bad space")
}

func (m *mapMem) Store(space isa.Space, lane int, addr, v int64) error {
	switch space {
	case isa.SpaceGlobal:
		m.global[addr] = v
	case isa.SpaceShared:
		m.shared[addr] = v
	case isa.SpaceLocal:
		m.local[[2]int64{int64(lane), addr}] = v
	default:
		return fmt.Errorf("bad space %v", space)
	}
	return nil
}

// recHooks records the block trace and memory events.
type recHooks struct {
	blocks []int
	masks  []uint32
	mems   []memEvent
}

type memEvent struct {
	block, memIdx int
	space         isa.Space
	store         bool
	addrs         []int64
}

func (h *recHooks) OnBlockEnter(block int, mask uint32) {
	h.blocks = append(h.blocks, block)
	h.masks = append(h.masks, mask)
}

func (h *recHooks) OnMemAccess(block, memIdx int, space isa.Space, store bool, addrs []int64) {
	cp := make([]int64, len(addrs))
	copy(cp, addrs)
	h.mems = append(h.mems, memEvent{block, memIdx, space, store, cp})
}

func fullWarp(params ...int64) WarpParams {
	lanes := make([]LaneInfo, WarpWidth)
	for i := range lanes {
		lanes[i] = LaneInfo{Tid: [3]int{i, 0, 0}, GlobalID: i}
	}
	return WarpParams{
		BlockDim: [3]int{WarpWidth, 1, 1},
		GridDim:  [3]int{1, 1, 1},
		Lanes:    lanes,
		Params:   params,
	}
}

func runKernel(t *testing.T, k *isa.Kernel, wp WarpParams, mem Memory) (*recHooks, Stats) {
	t.Helper()
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	h := &recHooks{}
	if mem == nil {
		mem = newMapMem()
	}
	st, err := runWarp(exec, wp, mem, h)
	if err != nil {
		t.Fatal(err)
	}
	return h, st
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUniformBranchSingleSide(t *testing.T) {
	// All lanes take the then-side: the else block must not appear.
	b := kbuild.New("uniform", 0)
	c := b.ConstR(1)
	b.If(c, func() { b.ConstR(2) }, func() { b.ConstR(3) })
	b.Ret()
	k := b.MustBuild()
	h, _ := runKernel(t, k, fullWarp(), nil)
	// Blocks: 0 entry, 1 then, 2 else, 3 join.
	if !eqInts(h.blocks, []int{0, 1, 3}) {
		t.Errorf("trace = %v, want [0 1 3]", h.blocks)
	}
}

func TestDivergentBranchVisitsBothSides(t *testing.T) {
	// Lanes with even tid take then, odd take else: the warp serializes
	// both sides and reconverges at the join, each side with its own mask.
	b := kbuild.New("diverge", 0)
	tid := b.Tid()
	even := b.CmpEQ(b.And(tid, b.ConstR(1)), b.ConstR(0))
	b.If(even, func() { b.ConstR(1) }, func() { b.ConstR(2) })
	b.Ret()
	k := b.MustBuild()
	h, _ := runKernel(t, k, fullWarp(), nil)
	if !eqInts(h.blocks, []int{0, 1, 2, 3}) {
		t.Errorf("trace = %v, want [0 1 2 3]", h.blocks)
	}
	var evenMask, oddMask uint32
	for i := 0; i < WarpWidth; i++ {
		if i%2 == 0 {
			evenMask |= 1 << uint(i)
		} else {
			oddMask |= 1 << uint(i)
		}
	}
	if h.masks[1] != evenMask {
		t.Errorf("then mask = %032b", h.masks[1])
	}
	if h.masks[2] != oddMask {
		t.Errorf("else mask = %032b", h.masks[2])
	}
	if h.masks[3] != ^uint32(0) {
		t.Errorf("join mask = %032b, want full reconvergence", h.masks[3])
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Lane i loops (tid % 4) times, writing its loop count to global[tid].
	b := kbuild.New("looptrips", 0)
	tid := b.Tid()
	limit := b.Mod(tid, b.ConstR(4))
	count := b.Reg()
	b.Const(count, 0)
	i := b.Reg()
	b.Const(i, 0)
	b.While(func() isa.Reg { return b.CmpLT(i, limit) }, func() {
		one := b.ConstR(1)
		b.Bin(isa.OpAdd, count, count, one)
		b.Bin(isa.OpAdd, i, i, one)
	})
	b.Store(isa.SpaceGlobal, tid, 0, count)
	b.Ret()
	k := b.MustBuild()
	mem := newMapMem()
	runKernel(t, k, fullWarp(), mem)
	for lane := 0; lane < WarpWidth; lane++ {
		want := int64(lane % 4)
		if got := mem.global[int64(lane)]; got != want {
			t.Errorf("lane %d count = %d, want %d", lane, got, want)
		}
	}
}

func TestEarlyReturnRetiresLanes(t *testing.T) {
	// Lanes < 8 return early; the rest write a marker.
	b := kbuild.New("earlyret", 0)
	tid := b.Tid()
	small := b.CmpLT(tid, b.ConstR(8))
	b.If(small, func() { b.Ret() }, nil)
	b.Store(isa.SpaceGlobal, tid, 0, b.ConstR(7))
	b.Ret()
	k := b.MustBuild()
	mem := newMapMem()
	h, _ := runKernel(t, k, fullWarp(), nil)
	_ = h
	runKernel(t, k, fullWarp(), mem)
	for lane := 0; lane < WarpWidth; lane++ {
		_, wrote := mem.global[int64(lane)]
		if lane < 8 && wrote {
			t.Errorf("lane %d wrote after early return", lane)
		}
		if lane >= 8 && !wrote {
			t.Errorf("lane %d missing write", lane)
		}
	}
}

func TestAllLanesEarlyReturn(t *testing.T) {
	b := kbuild.New("allret", 0)
	c := b.ConstR(1)
	b.If(c, func() { b.Ret() }, nil)
	b.Store(isa.SpaceGlobal, b.ConstR(0), 0, b.ConstR(1))
	b.Ret()
	k := b.MustBuild()
	mem := newMapMem()
	h, _ := runKernel(t, k, fullWarp(), mem)
	if len(mem.global) != 0 {
		t.Error("store executed after all lanes returned")
	}
	if !eqInts(h.blocks, []int{0, 1}) {
		t.Errorf("trace = %v, want [0 1]", h.blocks)
	}
}

func TestNestedDivergence(t *testing.T) {
	// Outer: tid < 16; inner: tid % 2 == 0. Each lane writes a distinct
	// tag so every path is checked.
	b := kbuild.New("nested", 0)
	tid := b.Tid()
	tag := b.Reg()
	b.Const(tag, 0)
	outer := b.CmpLT(tid, b.ConstR(16))
	b.If(outer, func() {
		even := b.CmpEQ(b.And(tid, b.ConstR(1)), b.ConstR(0))
		b.If(even, func() { b.Const(tag, 1) }, func() { b.Const(tag, 2) })
	}, func() {
		b.Const(tag, 3)
	})
	b.Store(isa.SpaceGlobal, tid, 0, tag)
	b.Ret()
	k := b.MustBuild()
	mem := newMapMem()
	runKernel(t, k, fullWarp(), mem)
	for lane := 0; lane < WarpWidth; lane++ {
		var want int64
		switch {
		case lane >= 16:
			want = 3
		case lane%2 == 0:
			want = 1
		default:
			want = 2
		}
		if got := mem.global[int64(lane)]; got != want {
			t.Errorf("lane %d tag = %d, want %d", lane, got, want)
		}
	}
}

func TestMemAccessEventAddresses(t *testing.T) {
	b := kbuild.New("memev", 0)
	tid := b.Tid()
	addr := b.Add(tid, b.ConstR(100))
	b.Store(isa.SpaceGlobal, addr, 0, tid)
	b.Ret()
	k := b.MustBuild()
	h, _ := runKernel(t, k, fullWarp(), nil)
	if len(h.mems) != 1 {
		t.Fatalf("mem events = %d", len(h.mems))
	}
	ev := h.mems[0]
	if !ev.store || ev.space != isa.SpaceGlobal || ev.memIdx != 0 {
		t.Errorf("event = %+v", ev)
	}
	if len(ev.addrs) != WarpWidth {
		t.Fatalf("addrs = %d", len(ev.addrs))
	}
	for i, a := range ev.addrs {
		if a != int64(100+i) {
			t.Errorf("addr[%d] = %d", i, a)
		}
	}
}

func TestMemIdxSkipsNonMemInstrs(t *testing.T) {
	b := kbuild.New("memidx", 0)
	x := b.ConstR(5)
	b.Load(isa.SpaceGlobal, x, 0) // memIdx 0
	y := b.Add(x, x)
	b.Load(isa.SpaceGlobal, y, 0)     // memIdx 1
	b.Store(isa.SpaceGlobal, y, 0, x) // memIdx 2
	b.Ret()
	k := b.MustBuild()
	h, _ := runKernel(t, k, fullWarp(), nil)
	if len(h.mems) != 3 {
		t.Fatalf("mem events = %d", len(h.mems))
	}
	for i, ev := range h.mems {
		if ev.memIdx != i {
			t.Errorf("event %d has memIdx %d", i, ev.memIdx)
		}
	}
}

func TestPartialWarp(t *testing.T) {
	b := kbuild.New("partial", 0)
	tid := b.Tid()
	b.Store(isa.SpaceGlobal, tid, 0, b.ConstR(1))
	b.Ret()
	k := b.MustBuild()
	wp := fullWarp()
	wp.Lanes = wp.Lanes[:5]
	h, st := runKernel(t, k, wp, nil)
	if h.masks[0] != 0b11111 {
		t.Errorf("initial mask = %b", h.masks[0])
	}
	if st.BlocksExecuted != 1 {
		t.Errorf("blocks executed = %d", st.BlocksExecuted)
	}
	if len(h.mems[0].addrs) != 5 {
		t.Errorf("addrs = %d, want 5", len(h.mems[0].addrs))
	}
}

func TestSpecialRegisters(t *testing.T) {
	b := kbuild.New("specials", 1)
	out := b.Reg()
	b.Const(out, 0)
	store := func(sel int64, slot int64) {
		v := b.Special(sel)
		base := b.ConstR(slot * 64)
		tid := b.Special(isa.SpecTidX)
		b.Store(isa.SpaceGlobal, b.Add(base, tid), 0, v)
	}
	store(isa.SpecLaneID, 0)
	store(isa.SpecNtidX, 1)
	store(isa.SpecWarpID, 2)
	store(isa.SpecParamBase, 3)
	b.Ret()
	k := b.MustBuild()
	mem := newMapMem()
	wp := fullWarp(42)
	wp.WarpID = 3
	runKernel(t, k, wp, mem)
	for lane := 0; lane < WarpWidth; lane++ {
		if got := mem.global[int64(lane)]; got != int64(lane) {
			t.Errorf("laneid[%d] = %d", lane, got)
		}
		if got := mem.global[int64(64+lane)]; got != WarpWidth {
			t.Errorf("ntid[%d] = %d", lane, got)
		}
		if got := mem.global[int64(128+lane)]; got != 3 {
			t.Errorf("warpid[%d] = %d", lane, got)
		}
		if got := mem.global[int64(192+lane)]; got != 42 {
			t.Errorf("param[%d] = %d", lane, got)
		}
	}
}

func TestLocalMemoryIsPerLane(t *testing.T) {
	b := kbuild.New("local", 0)
	tid := b.Tid()
	b.Store(isa.SpaceLocal, b.ConstR(0), 0, tid)
	v := b.Load(isa.SpaceLocal, b.ConstR(0), 0)
	b.Store(isa.SpaceGlobal, tid, 0, v)
	b.Ret()
	k := b.MustBuild()
	mem := newMapMem()
	runKernel(t, k, fullWarp(), mem)
	for lane := 0; lane < WarpWidth; lane++ {
		if got := mem.global[int64(lane)]; got != int64(lane) {
			t.Errorf("lane %d read back %d from local slot 0", lane, got)
		}
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	b := kbuild.New("spin", 0)
	i := b.Reg()
	b.Const(i, 0)
	b.While(func() isa.Reg { return b.ConstR(1) }, func() {})
	b.Ret()
	k := b.MustBuild()
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	exec.SetMaxBlocks(100)
	_, err = runWarp(exec, fullWarp(), newMapMem(), nil)
	if err == nil {
		t.Error("infinite loop not caught")
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	for _, op := range []isa.Op{isa.OpDiv, isa.OpMod} {
		b := kbuild.New("divzero", 0)
		x := b.ConstR(5)
		z := b.ConstR(0)
		b.BinR(op, x, z)
		b.Ret()
		k := b.MustBuild()
		exec, err := NewExecutor(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runWarp(exec, fullWarp(), newMapMem(), nil); err == nil {
			t.Errorf("%v by zero not trapped", op)
		}
	}
}

func TestALUSemantics(t *testing.T) {
	tests := []struct {
		op   isa.Op
		a, b int64
		want int64
	}{
		{isa.OpAdd, 3, 4, 7},
		{isa.OpSub, 3, 4, -1},
		{isa.OpMul, -3, 4, -12},
		{isa.OpDiv, 7, 2, 3},
		{isa.OpDiv, -7, 2, -3},
		{isa.OpMod, 7, 3, 1},
		{isa.OpAnd, 0b1100, 0b1010, 0b1000},
		{isa.OpOr, 0b1100, 0b1010, 0b1110},
		{isa.OpXor, 0b1100, 0b1010, 0b0110},
		{isa.OpShl, 1, 4, 16},
		{isa.OpShr, -1, 60, 15},
		{isa.OpSar, -16, 2, -4},
		{isa.OpMin, 3, -2, -2},
		{isa.OpMax, 3, -2, 3},
		{isa.OpCmpEQ, 5, 5, 1},
		{isa.OpCmpNE, 5, 5, 0},
		{isa.OpCmpLT, -1, 0, 1},
		{isa.OpCmpLE, 0, 0, 1},
		{isa.OpCmpGT, 1, 2, 0},
		{isa.OpCmpGE, 2, 2, 1},
	}
	for _, tt := range tests {
		got, err := alu(tt.op, tt.a, tt.b)
		if err != nil {
			t.Errorf("%v(%d,%d): %v", tt.op, tt.a, tt.b, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%v(%d,%d) = %d, want %d", tt.op, tt.a, tt.b, got, tt.want)
		}
	}
}

// TestBranchSelectEquivalence is the if-conversion correctness property:
// a branchy max and a select max must produce identical results for every
// lane, for random inputs.
func TestBranchSelectEquivalence(t *testing.T) {
	branchy := func() *isa.Kernel {
		b := kbuild.New("branchy", 0)
		tid := b.Tid()
		v := b.Load(isa.SpaceGlobal, tid, 0)
		res := b.Reg()
		b.Mov(res, v)
		neg := b.CmpLT(v, b.ConstR(0))
		b.If(neg, func() { b.Const(res, 0) }, nil)
		b.Store(isa.SpaceGlobal, b.Add(tid, b.ConstR(1000)), 0, res)
		b.Ret()
		return b.MustBuild()
	}()
	selecty := func() *isa.Kernel {
		b := kbuild.New("selecty", 0)
		tid := b.Tid()
		v := b.Load(isa.SpaceGlobal, tid, 0)
		zero := b.ConstR(0)
		pos := b.CmpGE(v, zero)
		res := b.Select(pos, v, zero)
		b.Store(isa.SpaceGlobal, b.Add(tid, b.ConstR(1000)), 0, res)
		b.Ret()
		return b.MustBuild()
	}()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m1, m2 := newMapMem(), newMapMem()
		for i := 0; i < WarpWidth; i++ {
			v := r.Int63n(200) - 100
			m1.global[int64(i)] = v
			m2.global[int64(i)] = v
		}
		e1, _ := NewExecutor(branchy)
		e2, _ := NewExecutor(selecty)
		if _, err := runWarp(e1, fullWarp(), m1, nil); err != nil {
			return false
		}
		if _, err := runWarp(e2, fullWarp(), m2, nil); err != nil {
			return false
		}
		for i := 0; i < WarpWidth; i++ {
			if m1.global[int64(1000+i)] != m2.global[int64(1000+i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounting(t *testing.T) {
	b := kbuild.New("stats", 0)
	b.ConstR(1)
	b.ConstR(2)
	b.Ret()
	k := b.MustBuild()
	_, st := runKernel(t, k, fullWarp(), nil)
	if st.BlocksExecuted != 1 {
		t.Errorf("blocks = %d", st.BlocksExecuted)
	}
	if st.Instructions != 2*WarpWidth {
		t.Errorf("instructions = %d, want %d", st.Instructions, 2*WarpWidth)
	}
}

func TestInvalidWarpSizes(t *testing.T) {
	b := kbuild.New("tiny", 0)
	b.Ret()
	k := b.MustBuild()
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	wp := fullWarp()
	wp.Lanes = nil
	if _, err := runWarp(exec, wp, newMapMem(), nil); err == nil {
		t.Error("empty warp accepted")
	}
	wp.Lanes = make([]LaneInfo, WarpWidth+1)
	if _, err := runWarp(exec, wp, newMapMem(), nil); err == nil {
		t.Error("oversized warp accepted")
	}
}

func TestParamOutOfRangeTraps(t *testing.T) {
	b := kbuild.New("noparam", 2)
	b.Param(1)
	b.Ret()
	k := b.MustBuild()
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	wp := fullWarp(1) // only one param provided
	if _, err := runWarp(exec, wp, newMapMem(), nil); err == nil {
		t.Error("missing kernel argument not trapped")
	}
}

// runWarp executes one warp to completion through the production entry
// point, a BlockRun, here of one warp. A one-warp block has no other
// warp to wait for, so its barriers are trivially satisfied.
func runWarp(e *Executor, wp WarpParams, mem Memory, hooks Hooks) (Stats, error) {
	br, err := e.NewBlockRun([]WarpParams{wp}, []Memory{mem}, []Hooks{hooks})
	if err != nil {
		return Stats{}, err
	}
	err = br.Run(nil)
	st := br.WarpStats(0)
	br.Release()
	return st, err
}

// newWarpBlock prepares an untraced one-warp BlockRun whose warp a test
// drives by hand through br.runs[0].Resume.
func newWarpBlock(t *testing.T, e *Executor, wp WarpParams, mem Memory) *BlockRun {
	t.Helper()
	br, err := e.NewBlockRun([]WarpParams{wp}, []Memory{mem}, []Hooks{nil})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Release)
	return br
}

func TestBarrierResumable(t *testing.T) {
	b := kbuild.New("barrier", 0)
	tid := b.Tid()
	b.Store(isa.SpaceGlobal, tid, 0, b.ConstR(1))
	b.Barrier()
	b.Store(isa.SpaceGlobal, b.Add(tid, b.ConstR(100)), 0, b.ConstR(2))
	b.Ret()
	k := b.MustBuild()
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	mem := newMapMem()
	br := newWarpBlock(t, exec, fullWarp(), mem)
	run := br.runs[0]
	atBar, err := run.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if !atBar || run.Done() {
		t.Fatalf("first resume: atBarrier=%v done=%v", atBar, run.Done())
	}
	// Pre-barrier store happened, post-barrier store did not.
	if mem.global[0] != 1 {
		t.Error("pre-barrier store missing")
	}
	if _, ok := mem.global[100]; ok {
		t.Error("post-barrier store executed before release")
	}
	atBar, err = run.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if atBar || !run.Done() {
		t.Fatalf("second resume: atBarrier=%v done=%v", atBar, run.Done())
	}
	if mem.global[100] != 2 {
		t.Error("post-barrier store missing")
	}
}

func TestBarrierInDivergentFlowErrors(t *testing.T) {
	b := kbuild.New("divbar", 0)
	tid := b.Tid()
	odd := b.And(tid, b.ConstR(1))
	b.If(odd, func() { b.Barrier() }, nil)
	b.Ret()
	k := b.MustBuild()
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	run := newWarpBlock(t, exec, fullWarp(), newMapMem()).runs[0]
	for !run.Done() {
		if _, err := run.Resume(); err != nil {
			return // expected
		}
	}
	t.Error("divergent barrier accepted")
}

func TestBarrierUniformBranchOK(t *testing.T) {
	// A warp-uniform branch does not push divergence entries, so a barrier
	// inside it is legal (warpid-conditional code, the CUDA idiom).
	b := kbuild.New("unibar", 0)
	wid := b.Special(isa.SpecWarpID)
	isZero := b.CmpEQ(wid, b.ConstR(0))
	b.If(isZero, func() { b.Barrier() }, nil)
	b.Ret()
	k := b.MustBuild()
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWarp(exec, fullWarp(), newMapMem(), nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWarpThroughput measures raw executor speed on a tight ALU loop
// and reports simulated instructions per second.
func BenchmarkWarpThroughput(b *testing.B) {
	kb := kbuild.New("spinloop", 1)
	n := kb.Param(0)
	acc := kb.Reg()
	kb.Const(acc, 0)
	i := kb.Reg()
	kb.Const(i, 0)
	kb.While(func() isa.Reg { return kb.CmpLT(i, n) }, func() {
		x := kb.Xor(acc, i)
		kb.Mov(acc, x)
		one := kb.ConstR(1)
		kb.Bin(isa.OpAdd, i, i, one)
	})
	kb.Store(isa.SpaceGlobal, kb.ConstR(0), 0, acc)
	kb.Ret()
	k := kb.MustBuild()
	exec, err := NewExecutor(k)
	if err != nil {
		b.Fatal(err)
	}
	mem := newMapMem()
	var inst int64
	b.ResetTimer()
	for j := 0; j < b.N; j++ {
		st, err := runWarp(exec, fullWarp(1000), mem, nil)
		if err != nil {
			b.Fatal(err)
		}
		inst = st.Instructions
	}
	b.ReportMetric(float64(inst)*float64(b.N)/b.Elapsed().Seconds()/1e6, "simulated-MIPS")
}

func TestShuffleButterflyReduction(t *testing.T) {
	// Classic warp-level reduction: v += shfl(v, laneid ^ s) for s in
	// {16, 8, 4, 2, 1}; afterwards every lane holds the warp sum.
	b := kbuild.New("warpsum", 1)
	lane := b.Special(isa.SpecLaneID)
	v := b.Reg()
	loaded := b.Load(isa.SpaceGlobal, lane, 0)
	b.Mov(v, loaded)
	for s := int64(16); s >= 1; s /= 2 {
		partner := b.Xor(lane, b.ConstR(s))
		other := b.Shfl(v, partner)
		sum := b.Add(v, other)
		b.Mov(v, sum)
	}
	out := b.Param(0)
	b.Store(isa.SpaceGlobal, b.Add(out, lane), 0, v)
	b.Ret()
	k := b.MustBuild()

	mem := newMapMem()
	var want int64
	for i := 0; i < WarpWidth; i++ {
		mem.global[int64(i)] = int64(i * i)
		want += int64(i * i)
	}
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWarp(exec, fullWarp(100), mem, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < WarpWidth; i++ {
		if got := mem.global[int64(100+i)]; got != want {
			t.Errorf("lane %d sum = %d, want %d", i, got, want)
		}
	}
}

func TestShuffleReadsPreInstructionValues(t *testing.T) {
	// Every lane rotates its value to lane+1: lane i must read lane
	// (i-1)'s ORIGINAL value even though lower lanes execute first.
	b := kbuild.New("rotate", 1)
	lane := b.Special(isa.SpecLaneID)
	v := b.Reg()
	loaded := b.Load(isa.SpaceGlobal, lane, 0)
	b.Mov(v, loaded)
	prev := b.Add(lane, b.ConstR(WarpWidth-1)) // (lane-1) mod width via +31
	got := b.Shfl(v, prev)
	b.Mov(v, got)
	out := b.Param(0)
	b.Store(isa.SpaceGlobal, b.Add(out, lane), 0, v)
	b.Ret()
	k := b.MustBuild()
	mem := newMapMem()
	for i := 0; i < WarpWidth; i++ {
		mem.global[int64(i)] = int64(1000 + i)
	}
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWarp(exec, fullWarp(100), mem, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < WarpWidth; i++ {
		want := int64(1000 + (i+WarpWidth-1)%WarpWidth)
		if got := mem.global[int64(100+i)]; got != want {
			t.Errorf("lane %d = %d, want %d", i, got, want)
		}
	}
}

func TestShufflePartialWarpWraps(t *testing.T) {
	b := kbuild.New("partshfl", 1)
	lane := b.Special(isa.SpecLaneID)
	v := b.Reg()
	b.Mov(v, lane)
	idx := b.ConstR(7) // beyond the 4 live lanes: wraps mod nl
	got := b.Shfl(v, idx)
	out := b.Param(0)
	b.Store(isa.SpaceGlobal, b.Add(out, lane), 0, got)
	b.Ret()
	k := b.MustBuild()
	wp := fullWarp(0)
	wp.Lanes = wp.Lanes[:4]
	mem := newMapMem()
	exec, err := NewExecutor(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWarp(exec, wp, mem, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := mem.global[int64(i)]; got != 7%4 {
			t.Errorf("lane %d read %d, want %d", i, got, 7%4)
		}
	}
}
