package simt

// The reference interpreter: a direct port of the per-lane algorithm the
// warp-vectorized interpreter replaced. It executes straight from
// isa.Kernel — per-lane register slices, one execInstr call per active
// lane, terminator evaluated by re-reading the condition register — and
// is kept only as the oracle for FuzzInterpEquivalence and the
// equivalence tests: both interpreters must produce identical hook
// traces, register-visible effects, statistics, and errors.

import (
	"fmt"

	"owl/internal/isa"
)

// refWarpState is the resumable form of the reference: one warp's
// registers, reconvergence stack, and statistics, advanced a barrier
// interval at a time by refResume — the per-lane mirror of
// WarpRun.Resume. refRunBlock drives several of these on the rounds
// schedule to give BlockRun a multi-warp oracle.
type refWarpState struct {
	e       *Executor
	wp      WarpParams
	mem     Memory
	hooks   Hooks
	regs    [][]int64
	stack   []simtEntry
	resume  int
	st      Stats
	memIdx  [][]int
	scratch []int64
	done    bool
}

func newRefWarpState(e *Executor, wp WarpParams, mem Memory, hooks Hooks) (*refWarpState, error) {
	nl := len(wp.Lanes)
	if nl == 0 || nl > WarpWidth {
		return nil, fmt.Errorf("simt: warp %d has %d lanes", wp.WarpID, nl)
	}
	regs := make([][]int64, nl)
	for i := range regs {
		regs[i] = make([]int64, e.kernel.NumRegs)
	}
	initMask := uint32(0)
	if nl == WarpWidth {
		initMask = ^uint32(0)
	} else {
		initMask = (1 << uint(nl)) - 1
	}

	// memIdx[block][ci] is the index of instruction ci among its block's
	// memory instructions (the hook's memIdx).
	memIdx := make([][]int, len(e.kernel.Blocks))
	for bi, b := range e.kernel.Blocks {
		memIdx[bi] = make([]int, len(b.Code))
		n := 0
		for ci := range b.Code {
			memIdx[bi][ci] = n
			if b.Code[ci].IsMem() {
				n++
			}
		}
	}
	return &refWarpState{
		e: e, wp: wp, mem: mem, hooks: hooks,
		regs:    regs,
		stack:   []simtEntry{{pc: 0, rpc: -1, mask: initMask}},
		resume:  -1,
		memIdx:  memIdx,
		scratch: make([]int64, 0, WarpWidth),
	}, nil
}

// refResume executes until the warp retires (returns false) or reaches a
// barrier (returns true), exactly as WarpRun.Resume segments execution.
func (s *refWarpState) refResume() (atBarrier bool, err error) {
	e := s.e
	wp := s.wp
	nl := len(wp.Lanes)
	regs := s.regs

	for len(s.stack) > 0 {
		top := &s.stack[len(s.stack)-1]
		if top.mask == 0 || top.pc == top.rpc || top.pc < 0 {
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		if s.st.BlocksExecuted >= e.maxBlocks {
			return false, fmt.Errorf("simt: kernel %q warp %d exceeded %d blocks (possible infinite loop)",
				e.kernel.Name, wp.WarpID, e.maxBlocks)
		}
		blockID := top.pc
		mask := top.mask
		block := e.kernel.Blocks[blockID]

		start := 0
		if s.resume >= 0 {
			start = s.resume
			s.resume = -1
		} else {
			s.st.BlocksExecuted++
			if s.hooks != nil {
				s.hooks.OnBlockEnter(blockID, mask)
			}
		}

		for ci := start; ci < len(block.Code); ci++ {
			in := &block.Code[ci]
			if in.Op == isa.OpShfl {
				// Cross-lane read: every lane sees the pre-instruction
				// value of the source register.
				s.st.Instructions += refPopcount(mask)
				pre := make([]int64, nl)
				for lane := 0; lane < nl; lane++ {
					pre[lane] = regs[lane][in.A]
				}
				for lane := 0; lane < nl; lane++ {
					if mask&(1<<uint(lane)) == 0 {
						continue
					}
					src := int(uint64(regs[lane][in.B]) % uint64(nl))
					regs[lane][in.Dst] = pre[src]
				}
				continue
			}
			if in.Op == isa.OpBarrier {
				if len(s.stack) != 1 {
					return false, fmt.Errorf("simt: kernel %q B%d: barrier inside divergent control flow",
						e.kernel.Name, blockID)
				}
				// Suspend at the barrier; the next refResume continues
				// with the instruction after it.
				s.resume = ci + 1
				return true, nil
			}
			s.st.Instructions += refPopcount(mask)
			if in.IsMem() {
				s.scratch = s.scratch[:0]
			}
			for lane := 0; lane < nl; lane++ {
				if mask&(1<<uint(lane)) == 0 {
					continue
				}
				addr, err := refExecInstr(in, regs[lane], lane, wp, s.mem)
				if err != nil {
					return false, fmt.Errorf("simt: kernel %q B%d instr %d lane %d: %w",
						e.kernel.Name, blockID, ci, lane, err)
				}
				if in.IsMem() {
					s.scratch = append(s.scratch, addr)
				}
			}
			if in.IsMem() && s.hooks != nil {
				s.hooks.OnMemAccess(blockID, s.memIdx[blockID][ci], in.Space, in.Op == isa.OpStore, s.scratch)
			}
		}

		switch block.Term.Kind {
		case isa.TermJump:
			top.pc = block.Term.True
		case isa.TermRet:
			done := top.mask
			s.stack = s.stack[:len(s.stack)-1]
			for i := range s.stack {
				s.stack[i].mask &^= done
			}
		case isa.TermBranch:
			var taken, fall uint32
			for lane := 0; lane < nl; lane++ {
				bit := uint32(1) << uint(lane)
				if mask&bit == 0 {
					continue
				}
				if regs[lane][block.Term.Cond] != 0 {
					taken |= bit
				} else {
					fall |= bit
				}
			}
			switch {
			case fall == 0:
				top.pc = block.Term.True
			case taken == 0:
				top.pc = block.Term.False
			default:
				rpc := e.graph.IPostDom(blockID)
				top.pc = rpc
				s.stack = append(s.stack,
					simtEntry{pc: block.Term.False, rpc: rpc, mask: fall},
					simtEntry{pc: block.Term.True, rpc: rpc, mask: taken},
				)
			}
		}
	}
	s.done = true
	return false, nil
}

// refRunWarp executes one warp to completion with the reference per-lane
// algorithm, using only e.kernel and e.graph from the executor (never the
// decoded program). Barriers suspend and immediately resume, so a lone
// warp sees them trivially satisfied, matching a one-warp BlockRun.
func refRunWarp(e *Executor, wp WarpParams, mem Memory, hooks Hooks) (Stats, error) {
	s, err := newRefWarpState(e, wp, mem, hooks)
	if err != nil {
		return Stats{}, err
	}
	for {
		bar, err := s.refResume()
		if err != nil || !bar {
			return s.st, err
		}
	}
}

// refRunBlock executes every warp of one thread block on the rounds
// schedule the block driver falls back to: per round, each live warp (in
// warp index order) advances to its next barrier or retirement. The
// returned stats are per warp; the first error aborts the block exactly
// as BlockRun.Run surfaces it.
func refRunBlock(e *Executor, wps []WarpParams, mems []Memory, hooks []Hooks) ([]Stats, error) {
	states := make([]*refWarpState, len(wps))
	stats := make([]Stats, len(wps))
	for w := range wps {
		s, err := newRefWarpState(e, wps[w], mems[w], hooks[w])
		if err != nil {
			return stats, err
		}
		states[w] = s
	}
	collect := func() {
		for w, s := range states {
			stats[w] = s.st
		}
	}
	for {
		active := 0
		for _, s := range states {
			if s.done {
				continue
			}
			active++
			if _, err := s.refResume(); err != nil {
				collect()
				return stats, err
			}
		}
		if active == 0 {
			collect()
			return stats, nil
		}
	}
}

func refExecInstr(in *isa.Instr, r []int64, lane int, wp WarpParams, mem Memory) (int64, error) {
	switch in.Op {
	case isa.OpNop, isa.OpBarrier:
	case isa.OpConst:
		r[in.Dst] = in.Imm
	case isa.OpMov:
		r[in.Dst] = r[in.A]
	case isa.OpNot:
		if r[in.A] == 0 {
			r[in.Dst] = 1
		} else {
			r[in.Dst] = 0
		}
	case isa.OpSelect:
		if r[in.A] != 0 {
			r[in.Dst] = r[in.B]
		} else {
			r[in.Dst] = r[in.C]
		}
	case isa.OpLoad:
		addr := r[in.A] + in.Imm
		v, err := mem.Load(in.Space, lane, addr)
		if err != nil {
			return 0, err
		}
		r[in.Dst] = v
		return addr, nil
	case isa.OpStore:
		addr := r[in.A] + in.Imm
		if err := mem.Store(in.Space, lane, addr, r[in.B]); err != nil {
			return 0, err
		}
		return addr, nil
	case isa.OpSpecial:
		v, err := refSpecial(in.Imm, lane, wp)
		if err != nil {
			return 0, err
		}
		r[in.Dst] = v
	default:
		v, err := alu(in.Op, r[in.A], r[in.B])
		if err != nil {
			return 0, err
		}
		r[in.Dst] = v
	}
	return 0, nil
}

func refSpecial(sel int64, lane int, wp WarpParams) (int64, error) {
	li := wp.Lanes[lane]
	switch sel {
	case isa.SpecTidX:
		return int64(li.Tid[0]), nil
	case isa.SpecTidY:
		return int64(li.Tid[1]), nil
	case isa.SpecTidZ:
		return int64(li.Tid[2]), nil
	case isa.SpecCtaidX:
		return int64(wp.BlockIdx[0]), nil
	case isa.SpecCtaidY:
		return int64(wp.BlockIdx[1]), nil
	case isa.SpecCtaidZ:
		return int64(wp.BlockIdx[2]), nil
	case isa.SpecNtidX:
		return int64(wp.BlockDim[0]), nil
	case isa.SpecNtidY:
		return int64(wp.BlockDim[1]), nil
	case isa.SpecNtidZ:
		return int64(wp.BlockDim[2]), nil
	case isa.SpecNctaidX:
		return int64(wp.GridDim[0]), nil
	case isa.SpecNctaidY:
		return int64(wp.GridDim[1]), nil
	case isa.SpecNctaidZ:
		return int64(wp.GridDim[2]), nil
	case isa.SpecLaneID:
		return int64(lane), nil
	case isa.SpecWarpID:
		return int64(wp.WarpID), nil
	case isa.SpecGlobalTid:
		return int64(li.GlobalID), nil
	}
	if sel >= isa.SpecParamBase {
		i := int(sel - isa.SpecParamBase)
		if i >= len(wp.Params) {
			return 0, fmt.Errorf("param %d out of range (%d provided)", i, len(wp.Params))
		}
		return wp.Params[i], nil
	}
	return 0, fmt.Errorf("unknown special register %d", sel)
}

func refPopcount(m uint32) int64 {
	n := int64(0)
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}
