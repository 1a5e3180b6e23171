// Package tracer is the simulated counterpart of the paper's Pin+NVBit
// pair (§V-C). As a cuda.Observer it captures allocation records and
// launch call stacks on the host; as a gpu.Instrument it attaches per-warp
// hooks that fold basic-block entries and memory accesses into one A-DCFG
// per kernel invocation, rebasing global addresses to allocation-relative
// offsets so that memory-layout changes (ASLR) do not fabricate trace
// differences. Each access's lanes are rebased in one call that resolves
// an allocation once for the lanes that hit it.
package tracer

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"owl/internal/adcfg"
	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/microarch"
	"owl/internal/simt"
	"owl/internal/trace"
)

// Option configures a Tracer.
type Option func(*Tracer)

// WithoutRebase disables allocation-relative address rebasing. Under ASLR
// this reintroduces layout noise — the ablation of §5 in DESIGN.md.
func WithoutRebase() Option {
	return func(t *Tracer) { t.rebase = false }
}

// WithCost enables the microarchitectural cost channel: per-warp
// bank-conflict, coalescing, and power-proxy observables are aggregated
// per (block, instruction) site into each Invocation's Cost records,
// which then join the trace's canonical encoding. Collection rides the
// interpreter's already-hooked slow path; the untraced fast path is
// unaffected, and traced runs without this option pay only a nil check
// per retained uop.
func WithCost() Option {
	return func(t *Tracer) { t.cost = true }
}

// Tracer records one program execution at a time into a ProgramTrace
// taken from trace.New; Reset starts the next. It observes one context
// and is not safe for concurrent use: a context's allocations and
// launches are host calls in program order, and a launch runs to
// completion before the next host call.
type Tracer struct {
	rebase bool
	cost   bool
	allocs []gpu.AllocRecord // sorted by Base
	result *trace.ProgramTrace

	// Per-launch scratch, reused launch to launch and run to run: nothing
	// holds a launch's instrumentation past its EndLaunch.
	li       launchInst
	rebaseFn adcfg.Rebaser // rebaseLanes, bound once
	// costKernel's collector is the last launch's, emptied and reused when
	// the next launch runs the same kernel.
	costKernel *isa.Kernel
	costColl   *microarch.Collector
}

var _ cuda.Observer = (*Tracer)(nil)

// New creates a tracer whose first execution is of the named program.
func New(program string, opts ...Option) *Tracer {
	t := &Tracer{
		rebase: true,
		result: trace.New(program),
	}
	for _, o := range opts {
		o(t)
	}
	t.rebaseFn = t.rebaseLanes
	return t
}

// Reset starts the trace of the next execution, of the named program.
// The previous trace belongs to whoever took it from Trace and is left
// untouched; the tracer keeps only its scratch.
func (t *Tracer) Reset(program string) {
	t.allocs = t.allocs[:0]
	t.result = trace.New(program)
}

// Trace hands the recorded program trace to the caller and forgets it:
// the tracer records nothing more until Reset. A list the run left empty
// is nil, as in a trace built from nothing, so the trace's JSON does not
// depend on the released trace it was recorded into.
func (t *Tracer) Trace() *trace.ProgramTrace {
	r := t.result
	t.result = nil
	if len(r.Allocs) == 0 {
		r.Allocs = nil
	}
	if len(r.Invocations) == 0 {
		r.Invocations = nil
	}
	return r
}

// OnAlloc implements cuda.Observer. The bump allocator hands out
// ascending bases, so the table grows at its end; the binary search
// keeps it sorted for any order.
func (t *Tracer) OnAlloc(rec gpu.AllocRecord, site string) {
	i, _ := slices.BinarySearchFunc(t.allocs, rec.Base, func(a gpu.AllocRecord, base int64) int {
		return cmp.Compare(a.Base, base)
	})
	t.allocs = slices.Insert(t.allocs, i, rec)
	t.result.Allocs = append(t.result.Allocs, trace.Alloc{ID: rec.ID, Words: rec.Words, Site: site})
}

// OnLaunch implements cuda.Observer: it registers the invocation and
// returns the device-side instrumentation for it. A pooled trace keeps
// the invocations of the run it last recorded, and runs of one program
// launch the same kernels in the same order, so the invocation at this
// launch's position is reset and reused with its graph and cost sites.
func (t *Tracer) OnLaunch(info cuda.LaunchInfo) gpu.Instrument {
	invs := t.result.Invocations
	i := len(invs)
	if i == cap(invs) || invs[:i+1][i] == nil {
		invs = append(invs, &trace.Invocation{})
	}
	invs = invs[:i+1]
	t.result.Invocations = invs
	inv := invs[i]
	g, cost := inv.Graph, inv.Cost[:0]
	if g == nil {
		g = adcfg.NewGraph(info.Kernel.Name)
	} else {
		g.Reset(info.Kernel.Name)
	}
	*inv = trace.Invocation{
		Seq:     info.Seq,
		StackID: info.StackID,
		Kernel:  info.Kernel.Name,
		Grid:    info.Grid,
		Block:   info.Block,
		Graph:   g,
	}
	li := &t.li
	warps := li.warps
	n := (info.Block.Count() + simt.WarpWidth - 1) / simt.WarpWidth
	if cap(warps) >= n {
		warps = warps[:n]
	} else {
		warps = make([]costWarpHooks, n)
	}
	*li = launchInst{inv: inv, rebase: t.rebaser(), warps: warps}
	if t.cost {
		li.cost = t.collector(info.Kernel)
		inv.Cost = cost
	}
	for i := range warps {
		warps[i] = costWarpHooks{warpHooks{g.Folder(i, li.rebase)}, li.cost}
	}
	return li
}

// collector returns an empty cost collector for a launch of k: the last
// launch's when it ran k too, a new one otherwise.
func (t *Tracer) collector(k *isa.Kernel) *microarch.Collector {
	if k == t.costKernel {
		t.costColl.Reset()
	} else {
		t.costKernel, t.costColl = k, microarch.NewCollector(k)
	}
	return t.costColl
}

// rebaser returns the lane rebaser of the current allocation table, or
// nil when rebasing is off. Global addresses map to (allocation ID + 1)
// << 40 | offset; addresses outside any allocation keep their raw value
// with the top bit set. Other spaces are already layout-independent and
// pass through unchanged. The rebaser reads the live table: host calls,
// and so allocations, wait for a launch to finish.
func (t *Tracer) rebaser() adcfg.Rebaser {
	if !t.rebase {
		return nil
	}
	return t.rebaseFn
}

// rebaseLanes is the lane rebaser. It resolves the first lane's region of
// the address space and reuses its bounds for the following lanes,
// searching the table again only when a lane falls outside them.
func (t *Tracer) rebaseLanes(space isa.Space, addrs []int64, keys []uint64) {
	if space != isa.SpaceGlobal {
		for i, a := range addrs {
			keys[i] = uint64(a)
		}
		return
	}
	var r region
	for i, a := range addrs {
		if i == 0 || a < r.lo || a >= r.hi {
			r = regionOf(t.allocs, a)
		}
		keys[i] = r.tag | uint64(a-r.base)
	}
}

// region is a stretch [lo, hi) of global addresses that rebase alike:
// each address a maps to tag | (a - base).
type region struct {
	lo, hi, base int64
	tag          uint64
}

// regionOf returns the region holding a, given allocations sorted by
// base: the part of the last allocation starting at or below a that lies
// before the next one, or the unowned stretch around a.
func regionOf(allocs []gpu.AllocRecord, a int64) region {
	// Find the last allocation with Base <= a.
	i := sort.Search(len(allocs), func(i int) bool { return allocs[i].Base > a }) - 1
	r := region{lo: math.MinInt64, hi: math.MaxInt64, tag: 1 << 63}
	if i+1 < len(allocs) {
		r.hi = allocs[i+1].Base
	}
	if i < 0 {
		return r
	}
	al := allocs[i]
	end := al.Base + al.Words
	if a >= end {
		r.lo = end
		return r
	}
	r.lo, r.hi, r.base, r.tag = al.Base, min(r.hi, end), al.Base, uint64(al.ID+1)<<40
	return r
}

// launchInst instruments one kernel launch. Thread blocks run one at a
// time, so every warp folds each observation exactly once, straight into
// the invocation's A-DCFG and cost collector, with no lock. The hooks of
// warp w are reused from block to block, since every warp retires before
// the next block begins. The invocation, its graph, the graph's warp
// folders and its cost-site buffer are the ones this launch position
// held in the released trace the run records into, so a steady-state
// launch allocates nothing.
type launchInst struct {
	inv    *trace.Invocation
	rebase adcfg.Rebaser
	cost   *microarch.Collector // nil unless WithCost
	warps  []costWarpHooks      // by warp ID
}

var _ gpu.Instrument = (*launchInst)(nil)

// BeginWarp returns hooks that fold the warp into the invocation graph.
// With the cost channel on, the hooks are a distinct type satisfying
// simt.CostHooks — plain traced runs must not, or every traced uop would
// pay the register-write callback.
func (li *launchInst) BeginWarp(_ gpu.Dim3, warpID int) simt.Hooks {
	w := &li.warps[warpID]
	if li.cost != nil {
		return w
	}
	return &w.warpHooks
}

// EndLaunch renders the invocation's canonical cost sites once.
func (li *launchInst) EndLaunch() {
	if li.cost != nil {
		li.inv.Cost = li.cost.Sites(li.inv.Cost)
	}
}

// warpHooks adapts one warp's simt callbacks onto a WarpFolder. This is
// the interpreter's hot path: both callbacks fold the event into the
// invocation graph without retaining the addrs slice (the interpreter reuses
// one address buffer per warp). They allocate only when the graph outgrows
// the spare nodes, visits and histograms its Reset kept, or the folder the
// transition states it kept from the graph's earlier launches.
type warpHooks struct {
	folder *adcfg.WarpFolder
}

var _ simt.Hooks = (*warpHooks)(nil)

func (w *warpHooks) OnBlockEnter(block int, _ uint32) {
	w.folder.EnterBlock(block)
}

func (w *warpHooks) OnMemAccess(_, memIdx int, space isa.Space, store bool, addrs []int64) {
	w.folder.MemAccess(memIdx, space, store, addrs)
}

// EndWarp records the warp's End transition, adds its pending transition
// counts to the invocation graph, and leaves the folder ready for the
// warp with the same ID in the next thread block.
func (w *warpHooks) EndWarp() { w.folder.Finish() }

// costWarpHooks extends warpHooks with the cost-channel observables. It
// is the only hooks type that satisfies simt.CostHooks, so the
// interpreter fires OnRegWrite exclusively on cost-enabled runs. Memory
// accesses feed both the A-DCFG folder and the launch's collector.
type costWarpHooks struct {
	warpHooks
	cost *microarch.Collector
}

var _ simt.CostHooks = (*costWarpHooks)(nil)

func (w *costWarpHooks) OnMemAccess(block, memIdx int, space isa.Space, store bool, addrs []int64) {
	w.folder.MemAccess(memIdx, space, store, addrs)
	w.cost.RecordMem(block, memIdx, space, addrs)
}

func (w *costWarpHooks) OnRegWrite(block, instr int, vals *[simt.WarpWidth]int64, mask uint32) {
	w.cost.RecordRegWrite(block, instr, vals, mask)
}
