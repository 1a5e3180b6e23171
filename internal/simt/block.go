package simt

// Block execution. A BlockRun owns every warp of one thread block and
// drives them in rounds: per round, each live warp resumes in index order
// and runs to its next barrier or to retirement, which is what gives
// __syncthreads its meaning and fixes the order in which hooks see the
// warps' events. The per-lane reference's refRunBlock follows the same
// schedule, and FuzzInterpEquivalence's multi-warp mode checks the two
// against each other.
//
// The block's registers live in one pooled buffer. Warp w owns the
// contiguous window regs[w*numSlots*WarpWidth:][:numSlots*WarpWidth],
// laid out [slot][lane], so a decoded register offset (slot*WarpWidth)
// indexes the warp's window directly.

import (
	"fmt"
	"sync"
)

// BlockRun executes all warps of one thread block. Create with
// NewBlockRun, drive with Run, recycle with Release.
type BlockRun struct {
	e    *Executor
	nW   int
	runs []*WarpRun // owned by the BlockRun, recycled with it
	regs []int64    // nW windows of [slot][lane], one per warp
}

var blockRunPool = sync.Pool{New: func() any { return new(BlockRun) }}

// NewBlockRun prepares every warp of a thread block. wps, mems and hooks
// are parallel slices, one entry per warp; a nil hooks entry leaves that
// warp untraced. Each warp gets its own register window in the block's
// pooled buffer.
func (e *Executor) NewBlockRun(wps []WarpParams, mems []Memory, hooks []Hooks) (*BlockRun, error) {
	nW := len(wps)
	if nW == 0 || len(mems) != nW || len(hooks) != nW {
		return nil, fmt.Errorf("simt: block of %d warps with %d memories, %d hooks",
			nW, len(mems), len(hooks))
	}
	for w := range wps {
		if err := checkWarpWidth(wps[w]); err != nil {
			return nil, err
		}
	}

	br := blockRunPool.Get().(*BlockRun)
	br.e = e
	br.nW = nW
	for len(br.runs) < nW {
		br.runs = append(br.runs, new(WarpRun))
	}

	// A reused buffer needs zeroing only at the slots some read can reach
	// before any write (clearOffs); when those are half the slots or more,
	// one clear of the whole buffer is cheaper.
	win := e.numSlots * WarpWidth
	n := win * nW
	partial := false
	if cap(br.regs) >= n {
		br.regs = br.regs[:n]
		if len(e.clearOffs)*2 >= e.numSlots {
			clear(br.regs)
		} else {
			partial = true
		}
	} else {
		br.regs = make([]int64, n)
	}

	for w := 0; w < nW; w++ {
		r := br.runs[w]
		e.initWarpRun(r, wps[w], mems[w], hooks[w])
		r.regs = br.regs[w*win : (w+1)*win : (w+1)*win]
		if partial {
			for _, off := range e.clearOffs {
				clear(r.regs[off : off+WarpWidth])
			}
		}
	}
	return br, nil
}

// Run drives the block to completion in rounds: each round resumes every
// live warp, in index order, up to its next barrier or its retirement.
// onRetire (may be nil) fires once per warp as it retires. The first
// error aborts the block.
func (br *BlockRun) Run(onRetire func(w int)) error {
	runs := br.runs[:br.nW]
	for {
		active := 0
		for w, r := range runs {
			if r.Done() {
				continue
			}
			active++
			if _, err := r.Resume(); err != nil {
				return err
			}
			if r.Done() && onRetire != nil {
				onRetire(w)
			}
		}
		if active == 0 {
			return nil
		}
	}
}

// WarpStats returns the accumulated statistics of warp w.
func (br *BlockRun) WarpStats(w int) Stats { return br.runs[w].st }

// Release recycles the block's state (register file included). The run
// must not be used afterwards.
func (br *BlockRun) Release() {
	for _, r := range br.runs[:br.nW] {
		r.exec = nil
		r.mem = nil
		r.hooks = nil
		r.cost = nil
		r.wp = WarpParams{}
		r.regs = nil
		r.dGlobal, r.dConst, r.dShared, r.dLocal = nil, nil, nil, nil
		for i := range r.uniErrs {
			r.uniErrs[i] = nil
		}
	}
	br.e = nil
	blockRunPool.Put(br)
}
