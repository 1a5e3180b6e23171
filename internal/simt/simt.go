// Package simt executes device kernels one warp at a time, with the
// SIMT-stack divergence model used by NVIDIA hardware: all (up to) 32 lanes
// of a warp execute the same instruction under an active mask; a divergent
// branch splits the mask and the two sides run serially until they
// reconverge at the branch block's immediate post-dominator.
//
// This is the behaviour the paper's warp-level tracing relies on (§V-A): a
// warp's basic-block trace is a property of the whole warp, while memory
// accesses are recorded per active lane.
//
// The interpreter is warp-vectorized: NewExecutor lowers each basic block
// once into a decoded program (see decode.go), registers live in a
// structure-of-arrays file (regs[reg*WarpWidth+lane]) recycled through a
// pool, and each decoded instruction executes as one lane loop under a
// hoisted active-mask test. Memories implementing the optional
// DirectMemory extension get slice-indexed loads and stores; any other
// Memory implementation takes the per-lane interface path, which remains
// the fully supported fallback (and the error path: a direct access that
// falls outside its backing slice re-issues through the interface so
// custom bounds diagnostics are preserved).
package simt

import (
	"fmt"

	"owl/internal/cfg"
	"owl/internal/isa"
)

// WarpWidth is the number of lanes in a warp.
const WarpWidth = 32

// Hooks observes a warp's execution, mirroring NVBit's instrumentation
// callbacks. Implementations must not retain the addrs slice: the
// interpreter reuses one address buffer for every memory instruction of
// the warp.
type Hooks interface {
	// OnBlockEnter fires when the warp enters a basic block with the given
	// active mask.
	OnBlockEnter(block int, mask uint32)
	// OnMemAccess fires for each executed memory instruction. memIdx is the
	// index of the instruction among the block's memory instructions (in
	// program order); addrs holds the addresses touched by active lanes.
	OnMemAccess(block, memIdx int, space isa.Space, store bool, addrs []int64)
}

// CostHooks is an optional extension of Hooks for microarchitectural cost
// collection. When a warp's Hooks implements it, the interpreter
// additionally fires OnRegWrite after each register-writing instruction
// retires — the feed of the Hamming-weight power proxy. Address-derived
// cost observables (bank conflicts, coalescing) need no extra interpreter
// support: they are computed from OnMemAccess. Implementations must not
// retain vals; the interpreter's register file is reused across blocks.
type CostHooks interface {
	Hooks
	// OnRegWrite fires after an instruction writes its destination
	// register. block is the executing basic block, instr the instruction's
	// code index within it, vals the warp's destination vector, and mask
	// the active lanes (only those lanes of vals were written).
	OnRegWrite(block, instr int, vals *[WarpWidth]int64, mask uint32)
}

// Memory provides the warp's view of device memory. lane selects the
// per-thread local space; it is ignored for the shared spaces.
type Memory interface {
	Load(space isa.Space, lane int, addr int64) (int64, error)
	Store(space isa.Space, lane int, addr, v int64) error
}

// DirectMemory is an optional extension of Memory that exposes the raw
// backing slices of the global, constant, and shared spaces plus the
// warp's flat local space. When a warp's Memory implements it, in-range
// loads and stores compile down to slice indexing; accesses outside the
// exposed backing (and stores to read-only spaces) fall back to the
// Memory interface, so error behaviour is identical on both paths.
//
// The slices must stay valid — same base, same length — for the lifetime
// of the warp; the interpreter snapshots them at warp setup.
type DirectMemory interface {
	Memory
	Direct() Direct
}

// Direct is the backing exposed by a DirectMemory. A nil slice (or nil
// Local) routes that space through the Memory interface.
type Direct struct {
	Global   []int64
	Constant []int64
	Shared   []int64
	Local    *LocalSpace
}

// LocalSpace is a warp's per-thread local memory, stored flat and
// addr-major (data[addr*WarpWidth+lane]) so the interpreter can index it
// directly. It materializes lazily to the high-water address the warp
// actually touches; unwritten addresses read zero, and out-of-band
// addresses (negative, or beyond the flat limit) spill to a sparse map,
// preserving the semantics of the earlier map-per-lane representation.
type LocalSpace struct {
	words int64   // flat words per lane currently materialized
	data  []int64 // addr-major backing, len == words*WarpWidth
	spill map[int]map[int64]int64
}

// localFlatWords bounds the flat representation (per lane). Addresses at
// or above it (or negative) use the spill map, so one wild store cannot
// force a huge allocation.
const localFlatWords = 1 << 16

// Load reads lane's local word at addr; unwritten addresses read zero.
func (s *LocalSpace) Load(lane int, addr int64) int64 {
	if uint64(addr) < uint64(s.words) {
		return s.data[addr*WarpWidth+int64(lane)]
	}
	if s.spill != nil {
		return s.spill[lane][addr]
	}
	return 0
}

// Store writes lane's local word at addr, growing the flat backing to
// cover addr when it is in flat range.
func (s *LocalSpace) Store(lane int, addr, v int64) {
	if addr >= 0 && addr < localFlatWords {
		if addr >= s.words {
			s.grow(addr + 1)
		}
		s.data[addr*WarpWidth+int64(lane)] = v
		return
	}
	if s.spill == nil {
		s.spill = make(map[int]map[int64]int64)
	}
	lm := s.spill[lane]
	if lm == nil {
		lm = make(map[int64]int64)
		s.spill[lane] = lm
	}
	lm[addr] = v
}

func (s *LocalSpace) grow(words int64) {
	n := words * WarpWidth
	if n <= int64(cap(s.data)) {
		old := len(s.data)
		s.data = s.data[:n]
		clear(s.data[old:])
	} else {
		// Double to amortize growth across a loop of increasing stores.
		c := 2 * int64(cap(s.data))
		if c < n {
			c = n
		}
		grown := make([]int64, n, c)
		copy(grown, s.data)
		s.data = grown
	}
	s.words = words
}

// Reset empties the space for reuse, keeping the flat backing capacity.
func (s *LocalSpace) Reset() {
	s.words = 0
	s.data = s.data[:0]
	s.spill = nil
}

// LaneInfo carries the per-thread identity of one lane.
type LaneInfo struct {
	Tid      [3]int
	GlobalID int
}

// WarpParams describes the warp's position in the grid.
type WarpParams struct {
	WarpID   int
	BlockIdx [3]int
	BlockDim [3]int
	GridDim  [3]int
	Lanes    []LaneInfo // 1..WarpWidth entries
	Params   []int64    // kernel parameters
}

// Stats summarizes one warp execution.
type Stats struct {
	BlocksExecuted int
	Instructions   int64
}

// DefaultMaxBlocks bounds the number of basic blocks a single warp may
// execute, as an infinite-loop guard.
const DefaultMaxBlocks = 1 << 22

// Executor runs warps of one kernel. It is safe for concurrent use by
// multiple goroutines, each running distinct warps: the decoded program
// is immutable after NewExecutor (launchers may therefore cache and share
// one Executor per kernel, provided the kernel is not mutated afterwards).
type Executor struct {
	kernel    *isa.Kernel
	graph     *cfg.Graph
	maxBlocks int
	progs     []blockProg
	uniSels   []int64 // warp-uniform special selectors, by slot
	numSlots  int     // renumbered register slots (≤ kernel.NumRegs)
	clearOffs []int32 // register-file offsets that must start zeroed
}

// NewExecutor prepares a kernel for execution: it computes reconvergence
// points and lowers every basic block into the decoded form the
// interpreter executes (see decode.go).
func NewExecutor(k *isa.Kernel) (*Executor, error) {
	g, err := cfg.New(k)
	if err != nil {
		return nil, err
	}
	e := &Executor{kernel: k, graph: g, maxBlocks: DefaultMaxBlocks}
	e.lower()
	return e, nil
}

// SetMaxBlocks overrides the infinite-loop guard.
func (e *Executor) SetMaxBlocks(n int) { e.maxBlocks = n }

// stack entry of the SIMT reconvergence stack.
type simtEntry struct {
	pc   int // next block to execute; -1 means warp exit
	rpc  int // reconvergence block; -1 means warp exit
	mask uint32
}

// WarpRun is a resumable warp execution. Resume advances until the warp
// retires or reaches a block-wide barrier (OpBarrier), letting the device
// layer interleave the warps of a thread block with correct __syncthreads
// semantics.
type WarpRun struct {
	exec     *Executor
	wp       WarpParams
	mem      Memory
	hooks    Hooks
	cost     CostHooks // hooks' CostHooks extension, or nil (asserted once at setup)
	nl       int
	fullMask uint32
	// SoA register file: the warp's [slot][lane] window of its BlockRun's
	// pooled buffer, slot s's lanes at regs[s*WarpWidth:]. See block.go.
	regs   []int64
	stack  []simtEntry
	resume int // >= 0: re-enter the current block at this decoded index
	st     Stats
	done   bool

	// Direct-memory fast paths, snapshotted from the Memory at setup.
	direct  bool
	dGlobal []int64
	dConst  []int64
	dShared []int64
	dLocal  *LocalSpace

	// Per-warp-constant specials, resolved at setup (see decode.go).
	laneVecs [numLaneVecs][WarpWidth]int64
	uniVals  []int64
	uniErrs  []error

	scratch [WarpWidth]int64 // address buffer passed to OnMemAccess
	shfl    [WarpWidth]int64 // OpShfl pre-instruction value snapshot
}

func checkWarpWidth(wp WarpParams) error {
	if nl := len(wp.Lanes); nl == 0 || nl > WarpWidth {
		return fmt.Errorf("simt: warp %d has %d lanes", wp.WarpID, nl)
	}
	return nil
}

// initWarpRun fills every per-warp field except the register file, which
// the caller provides: the warp's window of its BlockRun's buffer.
func (e *Executor) initWarpRun(r *WarpRun, wp WarpParams, mem Memory, hooks Hooks) {
	nl := len(wp.Lanes)
	r.exec = e
	r.wp = wp
	r.mem = mem
	r.hooks = hooks
	r.cost, _ = hooks.(CostHooks)
	r.nl = nl
	r.fullMask = ^uint32(0) >> (WarpWidth - uint(nl))
	r.resume = -1
	r.st = Stats{}
	r.done = false
	r.stack = append(r.stack[:0], simtEntry{pc: 0, rpc: -1, mask: r.fullMask})

	// Per-lane special vectors.
	for l := range wp.Lanes {
		li := &wp.Lanes[l]
		r.laneVecs[lvTidX][l] = int64(li.Tid[0])
		r.laneVecs[lvTidY][l] = int64(li.Tid[1])
		r.laneVecs[lvTidZ][l] = int64(li.Tid[2])
		r.laneVecs[lvLane][l] = int64(l)
		r.laneVecs[lvGID][l] = int64(li.GlobalID)
	}
	// Warp-uniform specials, resolved to immediates. Resolution errors
	// (missing kernel argument) are attached to the slot and surface only
	// if the reading instruction executes.
	r.uniVals = r.uniVals[:0]
	r.uniErrs = r.uniErrs[:0]
	for _, sel := range e.uniSels {
		v, err := uniformSpecial(sel, &r.wp)
		r.uniVals = append(r.uniVals, v)
		r.uniErrs = append(r.uniErrs, err)
	}

	r.direct = false
	r.dGlobal, r.dConst, r.dShared, r.dLocal = nil, nil, nil, nil
	if dm, ok := mem.(DirectMemory); ok {
		d := dm.Direct()
		r.direct = true
		r.dGlobal, r.dConst, r.dShared, r.dLocal = d.Global, d.Constant, d.Shared, d.Local
	}
}

// Done reports whether the warp has retired.
func (r *WarpRun) Done() bool { return r.done }

// Stats returns the accumulated execution statistics.
func (r *WarpRun) Stats() Stats { return r.st }

// vec returns the 32-lane register vector at a decoded register offset.
func (r *WarpRun) vec(off int32) *[WarpWidth]int64 {
	return (*[WarpWidth]int64)(r.regs[off:])
}

// errParamRange matches the diagnostic of a per-lane parameter read.
func errParamRange(i, provided int) error {
	return fmt.Errorf("param %d out of range (%d provided)", i, provided)
}

// errUnknownSpecial matches the diagnostic of a per-lane special read.
func errUnknownSpecial(sel int64) error {
	return fmt.Errorf("unknown special register %d", sel)
}

// alu evaluates one binary ALU or comparison opcode. The interpreter
// inlines these per class (see interp.go); alu is the reference
// single-value semantics, used by tests and kept in sync with the lane
// loops.
func alu(op isa.Op, a, b int64) (int64, error) {
	switch op {
	case isa.OpAdd:
		return a + b, nil
	case isa.OpSub:
		return a - b, nil
	case isa.OpMul:
		return a * b, nil
	case isa.OpDiv:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case isa.OpMod:
		if b == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return a % b, nil
	case isa.OpAnd:
		return a & b, nil
	case isa.OpOr:
		return a | b, nil
	case isa.OpXor:
		return a ^ b, nil
	case isa.OpShl:
		return a << (uint64(b) & 63), nil
	case isa.OpShr:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	case isa.OpSar:
		return a >> (uint64(b) & 63), nil
	case isa.OpMin:
		if a < b {
			return a, nil
		}
		return b, nil
	case isa.OpMax:
		if a > b {
			return a, nil
		}
		return b, nil
	case isa.OpCmpEQ:
		return b2i(a == b), nil
	case isa.OpCmpNE:
		return b2i(a != b), nil
	case isa.OpCmpLT:
		return b2i(a < b), nil
	case isa.OpCmpLE:
		return b2i(a <= b), nil
	case isa.OpCmpGT:
		return b2i(a > b), nil
	case isa.OpCmpGE:
		return b2i(a >= b), nil
	}
	return 0, fmt.Errorf("unknown opcode %v", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
