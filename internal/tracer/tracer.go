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
	"math"
	"slices"
	"sort"
	"sync"

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

// Tracer records one program execution into a ProgramTrace.
type Tracer struct {
	mu     sync.Mutex
	rebase bool
	cost   bool
	allocs []gpu.AllocRecord // sorted by Base
	result *trace.ProgramTrace
}

var _ cuda.Observer = (*Tracer)(nil)

// New creates a tracer for one execution of the named program.
func New(program string, opts ...Option) *Tracer {
	t := &Tracer{
		rebase: true,
		result: &trace.ProgramTrace{Program: program},
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Trace returns the recorded program trace.
func (t *Tracer) Trace() *trace.ProgramTrace { return t.result }

// OnAlloc implements cuda.Observer.
func (t *Tracer) OnAlloc(rec gpu.AllocRecord, site string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allocs = append(t.allocs, rec)
	sort.Slice(t.allocs, func(i, j int) bool { return t.allocs[i].Base < t.allocs[j].Base })
	t.result.Allocs = append(t.result.Allocs, trace.Alloc{ID: rec.ID, Words: rec.Words, Site: site})
}

// OnLaunch implements cuda.Observer: it registers the invocation and
// returns the device-side instrumentation for it.
func (t *Tracer) OnLaunch(info cuda.LaunchInfo) gpu.Instrument {
	inv := &trace.Invocation{
		Seq:     info.Seq,
		StackID: info.StackID,
		Kernel:  info.Kernel.Name,
		Grid:    info.Grid,
		Block:   info.Block,
		Graph:   adcfg.NewGraph(info.Kernel.Name),
	}
	t.mu.Lock()
	t.result.Invocations = append(t.result.Invocations, inv)
	rebase := t.rebaser()
	t.mu.Unlock()
	li := &launchInst{
		inv:    inv,
		rebase: rebase,
		warps:  make([]costWarpHooks, (info.Block.Count()+simt.WarpWidth-1)/simt.WarpWidth),
	}
	if t.cost {
		li.cost = microarch.NewCollector(info.Kernel)
	}
	return li
}

// rebaser snapshots the allocation table into a lane rebaser. Global
// addresses map to (allocation ID + 1) << 40 | offset; addresses outside
// any allocation keep their raw value with the top bit set. Other spaces
// are already layout-independent and pass through unchanged. The rebaser
// resolves the first lane's region of the address space and reuses its
// bounds for the following lanes, searching the table again only when a
// lane falls outside them.
func (t *Tracer) rebaser() adcfg.Rebaser {
	if !t.rebase {
		return nil
	}
	allocs := slices.Clone(t.allocs)
	return func(space isa.Space, addrs []int64, keys []uint64) {
		if space != isa.SpaceGlobal {
			for i, a := range addrs {
				keys[i] = uint64(a)
			}
			return
		}
		var r region
		for i, a := range addrs {
			if i == 0 || a < r.lo || a >= r.hi {
				r = regionOf(allocs, a)
			}
			keys[i] = r.tag | uint64(a-r.base)
		}
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
// the next block begins; their folders come from adcfg's folder pool, and
// EndLaunch releases them.
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
	if w.folder == nil {
		w.folder = adcfg.NewWarpFolder(li.inv.Graph, li.rebase)
		w.cost = li.cost
	}
	if li.cost != nil {
		return w
	}
	return &w.warpHooks
}

// EndLaunch releases the launch's warp folders and renders the
// invocation's canonical cost sites once.
func (li *launchInst) EndLaunch() {
	for i := range li.warps {
		if f := li.warps[i].folder; f != nil {
			f.Release()
			li.warps[i].folder = nil
		}
	}
	if li.cost != nil {
		li.inv.Cost = li.cost.Sites()
	}
}

// warpHooks adapts one warp's simt callbacks onto a WarpFolder. This is
// the interpreter's hot path: both callbacks fold the event into the
// invocation graph without retaining the addrs slice (the interpreter reuses
// one address buffer per warp) and without allocating beyond the graph's
// own pooled node/histogram growth and the folder's pooled transition
// states.
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
