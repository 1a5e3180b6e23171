// Package gpu models the device side of the simulated CUDA stack: a global
// memory arena with an (optionally ASLR-randomized) allocator, constant
// memory, per-thread-block shared memory, and a kernel launcher that
// organizes the grid into thread blocks and 32-lane warps and runs them on
// the SIMT executor.
package gpu

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"owl/internal/isa"
	"owl/internal/obs"
	"owl/internal/simt"
)

// Dim3 is a CUDA dim3: grid and block extents.
type Dim3 struct {
	X, Y, Z int
}

// D1 returns a one-dimensional Dim3.
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// Count returns the number of elements covered by the extents.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	if z <= 0 {
		z = 1
	}
	return x * y * z
}

// Instrument creates per-warp hooks for a launch, playing the role of
// NVBit's per-kernel instrumentation.
//
// Thread blocks run one at a time, and every warp of a block retires
// before the next block begins (a failed block ends the launch).
type Instrument interface {
	// BeginWarp returns the hooks of warp warpID of thread block
	// blockIdx. It may return nil to leave the warp untraced. Hooks that
	// implement EndWarp() are told when their warp retires.
	BeginWarp(blockIdx Dim3, warpID int) simt.Hooks
	// EndLaunch is called once, after every block of the launch has
	// finished running (or the launch failed).
	EndLaunch()
}

// Config sizes the simulated device.
type Config struct {
	// GlobalWords is the size of the global-memory arena in 64-bit words.
	GlobalWords int64
	// ConstWords is the size of constant memory in words.
	ConstWords int64
	// ASLR randomizes the allocation base on every Reset, as the NVIDIA
	// driver does. The paper disables it during tracing (§V-C); Owl's
	// tracer instead rebases addresses, and the ablation keeps it on.
	ASLR bool
}

// DefaultConfig returns a 2 Mi-word (16 MiB) device without ASLR — ample
// for the evaluated workloads while keeping per-execution setup cheap
// (detection resets the device for every one of its hundreds of runs).
func DefaultConfig() Config {
	return Config{GlobalWords: 1 << 21, ConstWords: 1 << 16}
}

// AllocRecord describes one device allocation.
type AllocRecord struct {
	ID    int
	Base  int64
	Words int64
}

// Device is one simulated GPU.
type Device struct {
	cfg      Config
	global   []int64
	constant []int64
	// constShared marks d.constant as a process-global interned arena
	// (see pool.go): it is immutable, shared with other devices, and must
	// be copied before any in-place write and never returned to the pool.
	constShared bool

	// released guards against double-Release returning the arena to the
	// pool twice.
	released bool
	cursor   int64
	slide    int64
	allocs   []AllocRecord
	// obsCtx, when non-nil, carries the observability recorder and parent
	// span every kernel launch reports under. nil (the default) keeps
	// Launch on its uninstrumented fast path.
	obsCtx context.Context
}

// SetObsContext attaches an observability context to the device: every
// subsequent Launch emits a kernel.launch span (grid/block dims, warp and
// simulated-instruction counts) and a simulated-MIPS counter under it.
// A nil ctx — or one without an obs.Recorder — leaves launches untraced
// at zero cost.
func (d *Device) SetObsContext(ctx context.Context) { d.obsCtx = ctx }

// NewDevice creates a device. rng is used only to draw the ASLR slide and
// may be nil when ASLR is off.
func NewDevice(cfg Config, rng *rand.Rand) (*Device, error) {
	if cfg.GlobalWords <= 0 || cfg.ConstWords < 0 {
		return nil, fmt.Errorf("gpu: invalid config %+v", cfg)
	}
	d := &Device{cfg: cfg}
	if err := d.Reset(rng); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset returns the device to the state NewDevice leaves it in, so one
// device can serve execution after execution: no allocations, memory
// that reads as zero, no observability context, and an ASLR slide drawn
// from rng (used only when ASLR is on, and may be nil otherwise). The
// global arena keeps its backing array, which is zeroed as it is
// materialized again; a released device takes one from the pool.
func (d *Device) Reset(rng *rand.Rand) error {
	if d.cfg.ASLR && rng == nil {
		return fmt.Errorf("gpu: ASLR requires an rng")
	}
	if d.global == nil {
		d.global = newArena()
	} else {
		d.global = d.global[:0]
	}
	if d.constShared || d.constant == nil {
		d.constant, d.constShared = newConstArena(), false
	} else {
		d.constant = d.constant[:0]
	}
	d.released = false
	d.cursor, d.slide = 0, 0
	d.allocs = d.allocs[:0]
	d.obsCtx = nil
	if d.cfg.ASLR {
		// Slide allocations into the upper half, page (4 KiB = 512 word)
		// aligned, leaving the lower half for growth.
		pages := d.cfg.GlobalWords / 2 / 512
		d.slide = rng.Int63n(pages) * 512
	}
	return nil
}

// Alloc reserves words of global memory and returns its record.
func (d *Device) Alloc(words int64) (AllocRecord, error) {
	if words <= 0 {
		return AllocRecord{}, fmt.Errorf("gpu: alloc of %d words", words)
	}
	base := d.slide + d.cursor
	if base+words > d.cfg.GlobalWords {
		return AllocRecord{}, fmt.Errorf("gpu: out of device memory (%d words requested at %d/%d)",
			words, base, d.cfg.GlobalWords)
	}
	// 256-byte (32 word) alignment, like cudaMalloc.
	d.cursor += (words + 31) &^ 31
	d.ensure(min(d.slide+d.cursor, d.cfg.GlobalWords))
	rec := AllocRecord{ID: len(d.allocs), Base: base, Words: words}
	d.allocs = append(d.allocs, rec)
	return rec, nil
}

// Allocs returns a copy of the allocation records, newest last.
func (d *Device) Allocs() []AllocRecord {
	out := make([]AllocRecord, len(d.allocs))
	copy(out, d.allocs)
	return out
}

// WriteGlobal copies data into global memory at base.
func (d *Device) WriteGlobal(base int64, data []int64) error {
	if base < 0 || base+int64(len(data)) > d.cfg.GlobalWords {
		return fmt.Errorf("gpu: global write [%d,%d) out of range", base, base+int64(len(data)))
	}
	d.ensure(base + int64(len(data)))
	copy(d.global[base:], data)
	return nil
}

// ReadGlobal copies words of global memory starting at base.
func (d *Device) ReadGlobal(base, words int64) ([]int64, error) {
	if base < 0 || base+words > d.cfg.GlobalWords {
		return nil, fmt.Errorf("gpu: global read [%d,%d) out of range", base, base+words)
	}
	d.ensure(base + words)
	out := make([]int64, words)
	copy(out, d.global[base:base+words])
	return out, nil
}

// WriteConstant copies data into constant memory at off.
//
// A whole-image write (offset 0 onto an untouched arena) is interned:
// detection re-uploads the same lookup tables for every instrumented
// execution, so identical images resolve to one immutable process-global
// arena shared across devices instead of a fresh copy per launch. Kernels
// cannot store to constant memory, and any later host write copies the
// image out first, so sharing is invisible to execution.
func (d *Device) WriteConstant(off int64, data []int64) error {
	if off < 0 || off+int64(len(data)) > d.cfg.ConstWords {
		return fmt.Errorf("gpu: constant write [%d,%d) out of range", off, off+int64(len(data)))
	}
	if off == 0 && len(data) > 0 &&
		(len(d.constant) == 0 || (d.constShared && len(data) >= len(d.constant))) {
		d.constant = internConst(data)
		d.constShared = true
		return nil
	}
	if d.constShared {
		d.unshareConst()
	}
	d.ensureConst(off + int64(len(data)))
	copy(d.constant[off:], data)
	return nil
}

// LaunchStats aggregates execution statistics of one kernel launch.
type LaunchStats struct {
	Warps          int
	Threads        int
	BlocksExecuted int
	Instructions   int64
}

// Executors are cached per kernel: the decoded program computed by
// simt.NewExecutor is immutable and safe for concurrent warps, and
// detection launches the same few kernels hundreds of times. The cache
// has two levels: a pointer-keyed map for the common repeated-launch hit,
// backed by a content-fingerprint-keyed store so distinct kernel objects
// with identical semantic content — separately-built program instances
// across owld jobs, hardened variants differing only in annotations —
// share one decoded executor process-wide. Both levels are cleared when
// they grow past a bound so generated throwaway kernels (fuzzing, tests)
// cannot pin memory.
var (
	execCacheMu sync.Mutex
	execCache   = map[*isa.Kernel]*simt.Executor{}
	execByFP    = map[uint64][]execFPEntry{}
)

type execFPEntry struct {
	k *isa.Kernel
	e *simt.Executor
}

const execCacheLimit = 256

func executorFor(k *isa.Kernel) (*simt.Executor, error) {
	execCacheMu.Lock()
	defer execCacheMu.Unlock()
	if e, ok := execCache[k]; ok {
		return e, nil
	}
	fp := k.Fingerprint()
	for _, ent := range execByFP[fp] {
		// The fingerprint only routes to a bucket; structural equality is
		// what licenses sharing the decoded program.
		if ent.k.Equal(k) {
			execCache[k] = ent.e
			return ent.e, nil
		}
	}
	e, err := simt.NewExecutor(k)
	if err != nil {
		return nil, err
	}
	if len(execCache) >= execCacheLimit {
		clear(execCache)
		clear(execByFP)
	}
	execCache[k] = e
	execByFP[fp] = append(execByFP[fp], execFPEntry{k: k, e: e})
	return e, nil
}

// EvictExecutors drops every cached decoded executor. Kernel definitions
// are immutable after first launch under normal operation, but callers
// that substitute definitions out from under a running pipeline —
// cuda.Context.SetKernelOverrides installing repaired kernels — evict so
// no stale decode outlives the substitution.
func EvictExecutors() {
	execCacheMu.Lock()
	defer execCacheMu.Unlock()
	clear(execCache)
	clear(execByFP)
}

// Launch runs kernel k over the given grid. inst may be nil for an
// untraced launch. The kernel must not be mutated after its first launch:
// its decoded executor is cached and shared across launches.
func (d *Device) Launch(k *isa.Kernel, grid, block Dim3, params []int64, inst Instrument) (LaunchStats, error) {
	if d.obsCtx == nil {
		return d.launch(k, grid, block, params, inst)
	}
	octx, sp := obs.Start(d.obsCtx, "kernel.launch")
	if sp == nil {
		return d.launch(k, grid, block, params, inst)
	}
	t0 := time.Now()
	stats, err := d.launch(k, grid, block, params, inst)
	elapsed := time.Since(t0)
	sp.SetStr("kernel", k.Name)
	sp.SetStr("grid", dimString(grid))
	sp.SetStr("block", dimString(block))
	sp.SetInt("warps", int64(stats.Warps))
	sp.SetInt("instructions", stats.Instructions)
	if err != nil {
		sp.SetStr("error", err.Error())
	}
	sp.End()
	if secs := elapsed.Seconds(); secs > 0 && stats.Instructions > 0 {
		obs.Counter(octx, "simulated_mips", float64(stats.Instructions)/secs/1e6)
	}
	return stats, err
}

// dimString renders extents as "XxYxZ" for span attributes.
func dimString(d Dim3) string {
	return fmt.Sprintf("%dx%dx%d", dimOrOne(d.X), dimOrOne(d.Y), dimOrOne(d.Z))
}

// launch is the uninstrumented body of Launch.
func (d *Device) launch(k *isa.Kernel, grid, block Dim3, params []int64, inst Instrument) (LaunchStats, error) {
	exec, err := executorFor(k)
	if err != nil {
		return LaunchStats{}, err
	}
	// Materialize the extent kernels may touch before running any block —
	// the arena never grows during kernel execution, because warps
	// snapshot the Direct slices at setup. Programs that allocate address
	// their allocations; a device launched without any host allocation
	// (raw-device tests) keeps the whole address space materialized, as
	// before lazy sizing.
	if len(d.allocs) == 0 {
		d.ensure(d.cfg.GlobalWords)
	} else {
		d.ensure(min(d.slide+d.cursor, d.cfg.GlobalWords))
	}
	if inst != nil {
		defer inst.EndLaunch()
	}
	if grid.X < 1 || grid.Y < 0 || grid.Z < 0 {
		return LaunchStats{}, fmt.Errorf("gpu: invalid grid %+v", grid)
	}
	if block.X < 1 || block.Y < 0 || block.Z < 0 {
		return LaunchStats{}, fmt.Errorf("gpu: invalid block %+v", block)
	}
	threadsPerBlock := block.Count()
	if threadsPerBlock > 1024 {
		return LaunchStats{}, fmt.Errorf("gpu: block of %d threads (1..1024 allowed)", threadsPerBlock)
	}

	nBlocks := grid.Count()
	nWarps := (threadsPerBlock + simt.WarpWidth - 1) / simt.WarpWidth
	var stats LaunchStats
	stats.Threads = nBlocks * threadsPerBlock

	flat1D := dimOrOne(block.Y) == 1 && dimOrOne(block.Z) == 1

	var sc *blockScratch
	endWarp := func(i int) {
		if sc.ended[i] {
			return
		}
		sc.ended[i] = true
		if fin, ok := sc.hooks[i].(interface{ EndWarp() }); ok && sc.hooks[i] != nil {
			fin.EndWarp()
		}
	}
	for i := 0; i < nBlocks; i++ {
		bi := coordAt(grid, i)
		sc = getBlockScratch(nWarps, threadsPerBlock, k.SharedWords)
		gidBase := i * threadsPerBlock // blocks run in x-fastest order

		// In x-fastest order a thread's enumeration index IS its flat tid.
		if flat1D {
			for t := 0; t < threadsPerBlock; t++ {
				sc.lanes[t] = simt.LaneInfo{
					Tid:      [3]int{t, 0, 0},
					GlobalID: gidBase + t,
				}
			}
		} else {
			for t := 0; t < threadsPerBlock; t++ {
				c := coordAt(block, t)
				sc.lanes[t] = simt.LaneInfo{
					Tid:      [3]int{c.X, c.Y, c.Z},
					GlobalID: gidBase + t,
				}
			}
		}

		// Describe every warp of the thread block; the BlockRun decides
		// whether they execute in lockstep or as barrier-synchronized
		// rounds (see simt/block.go).
		for w := 0; w < nWarps; w++ {
			lo := w * simt.WarpWidth
			hi := lo + simt.WarpWidth
			if hi > threadsPerBlock {
				hi = threadsPerBlock
			}
			sc.wps[w] = simt.WarpParams{
				WarpID:   w,
				BlockIdx: [3]int{bi.X, bi.Y, bi.Z},
				BlockDim: [3]int{dimOrOne(block.X), dimOrOne(block.Y), dimOrOne(block.Z)},
				GridDim:  [3]int{dimOrOne(grid.X), dimOrOne(grid.Y), dimOrOne(grid.Z)},
				Lanes:    sc.lanes[lo:hi:hi],
				Params:   params,
			}
			var hooks simt.Hooks
			if inst != nil {
				hooks = inst.BeginWarp(bi, w)
			}
			m := &sc.mems[w]
			m.dev = d
			m.shared = sc.shared
			m.local = &sc.locals[w]
			sc.memIfs[w] = m
			sc.hooks[w] = hooks
		}

		br, err := exec.NewBlockRun(sc.wps, sc.memIfs, sc.hooks)
		if err != nil {
			return stats, err
		}
		if err := br.Run(endWarp); err != nil {
			return stats, err
		}
		for w := 0; w < nWarps; w++ {
			endWarp(w)
			ws := br.WarpStats(w)
			stats.Warps++
			stats.BlocksExecuted += ws.BlocksExecuted
			stats.Instructions += ws.Instructions
		}
		br.Release()
		putBlockScratch(sc)
	}
	return stats, nil
}

func dimOrOne(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}

// coordAt returns the i-th coordinate of the extents in x-fastest order,
// replacing the materialized coordinate list a launch used to build.
func coordAt(d Dim3, i int) Dim3 {
	x, y := dimOrOne(d.X), dimOrOne(d.Y)
	return Dim3{X: i % x, Y: (i / x) % y, Z: i / (x * y)}
}

// blockScratch holds the per-thread-block launch state — shared memory,
// lane identities, warp runs, and per-warp local spaces — recycled across
// blocks and launches through a pool.
type blockScratch struct {
	shared []int64
	lanes  []simt.LaneInfo
	wps    []simt.WarpParams
	memIfs []simt.Memory
	hooks  []simt.Hooks
	ended  []bool
	mems   []warpMemory
	locals []simt.LocalSpace
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

func getBlockScratch(nWarps, threads, sharedWords int) *blockScratch {
	sc := blockScratchPool.Get().(*blockScratch)
	if cap(sc.shared) >= sharedWords {
		sc.shared = sc.shared[:sharedWords]
		clear(sc.shared)
	} else {
		sc.shared = make([]int64, sharedWords)
	}
	if cap(sc.lanes) >= threads {
		sc.lanes = sc.lanes[:threads]
	} else {
		sc.lanes = make([]simt.LaneInfo, threads)
	}
	if cap(sc.wps) >= nWarps {
		sc.wps = sc.wps[:nWarps]
	} else {
		sc.wps = make([]simt.WarpParams, nWarps)
	}
	if cap(sc.memIfs) >= nWarps {
		sc.memIfs = sc.memIfs[:nWarps]
	} else {
		sc.memIfs = make([]simt.Memory, nWarps)
	}
	if cap(sc.hooks) >= nWarps {
		sc.hooks = sc.hooks[:nWarps]
		clear(sc.hooks)
	} else {
		sc.hooks = make([]simt.Hooks, nWarps)
	}
	if cap(sc.ended) >= nWarps {
		sc.ended = sc.ended[:nWarps]
		clear(sc.ended)
	} else {
		sc.ended = make([]bool, nWarps)
	}
	// mems and locals are addressed by pointer, so they are sized up front
	// (appending could move them out from under live warps).
	if cap(sc.mems) >= nWarps {
		sc.mems = sc.mems[:nWarps]
	} else {
		sc.mems = make([]warpMemory, nWarps)
	}
	if cap(sc.locals) >= nWarps {
		sc.locals = sc.locals[:nWarps]
	} else {
		sc.locals = make([]simt.LocalSpace, nWarps)
	}
	for i := range sc.locals {
		sc.locals[i].Reset()
	}
	return sc
}

// putBlockScratch recycles the scratch. All warp runs must have been
// released first. Not called on error paths: a failed block's state may
// still be referenced, and correctness beats recycling there.
func putBlockScratch(sc *blockScratch) {
	for i := range sc.mems {
		sc.mems[i] = warpMemory{}
	}
	for i := range sc.memIfs {
		sc.memIfs[i] = nil
	}
	for i := range sc.wps {
		sc.wps[i] = simt.WarpParams{}
	}
	blockScratchPool.Put(sc)
}

// warpMemory adapts the device to one warp's view of memory. It exposes
// its backing to the interpreter via DirectMemory; the interface methods
// remain the out-of-range/read-only fallback (and the path taken by any
// non-direct consumer).
type warpMemory struct {
	dev    *Device
	shared []int64
	local  *simt.LocalSpace
}

var _ simt.DirectMemory = (*warpMemory)(nil)

// Direct exposes the warp's backing slices for slice-indexed access.
func (m *warpMemory) Direct() simt.Direct {
	return simt.Direct{
		Global:   m.dev.global,
		Constant: m.dev.constant,
		Shared:   m.shared,
		Local:    m.local,
	}
}

func (m *warpMemory) Load(space isa.Space, lane int, addr int64) (int64, error) {
	switch space {
	case isa.SpaceGlobal:
		if addr < 0 || addr >= int64(len(m.dev.global)) {
			return 0, fmt.Errorf("gpu: global load at %d out of range", addr)
		}
		return m.dev.global[addr], nil
	case isa.SpaceConstant:
		if addr < 0 || addr >= m.dev.cfg.ConstWords {
			return 0, fmt.Errorf("gpu: constant load at %d out of range", addr)
		}
		if addr >= int64(len(m.dev.constant)) {
			return 0, nil // configured but not yet materialized: zero
		}
		return m.dev.constant[addr], nil
	case isa.SpaceShared:
		if addr < 0 || addr >= int64(len(m.shared)) {
			return 0, fmt.Errorf("gpu: shared load at %d out of range (%d words)", addr, len(m.shared))
		}
		return m.shared[addr], nil
	case isa.SpaceLocal:
		if m.local == nil {
			return 0, nil
		}
		return m.local.Load(lane, addr), nil
	}
	return 0, fmt.Errorf("gpu: load from space %v", space)
}

func (m *warpMemory) Store(space isa.Space, lane int, addr, v int64) error {
	switch space {
	case isa.SpaceGlobal:
		if addr < 0 || addr >= int64(len(m.dev.global)) {
			return fmt.Errorf("gpu: global store at %d out of range", addr)
		}
		m.dev.global[addr] = v
		return nil
	case isa.SpaceConstant:
		return fmt.Errorf("gpu: constant memory is read-only")
	case isa.SpaceShared:
		if addr < 0 || addr >= int64(len(m.shared)) {
			return fmt.Errorf("gpu: shared store at %d out of range (%d words)", addr, len(m.shared))
		}
		m.shared[addr] = v
		return nil
	case isa.SpaceLocal:
		if m.local == nil {
			m.local = new(simt.LocalSpace)
		}
		m.local.Store(lane, addr, v)
		return nil
	}
	return fmt.Errorf("gpu: store to space %v", space)
}
