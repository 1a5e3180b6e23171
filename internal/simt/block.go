package simt

// Block-batched execution. A BlockRun owns every warp of one thread
// block: a single [slot][warp][lane] register file (each warp views its
// 32-lane window through WarpRun.vec's stride fields) and one of two
// drivers:
//
//   - lockstep: while every warp of the block sits at the same program
//     position with a full active mask, each decoded uop executes across
//     ALL resident warps before the next uop — for pure ALU classes as
//     one loop over the contiguous nW×32-lane slot row, so dispatch and
//     uop decode cost amortize over the whole block, and __syncthreads
//     barriers cost nothing (no stack walk, no Resume round trip);
//   - rounds: the per-warp WarpRun.Resume path, byte-identical to the
//     pre-batching interpreter, advancing every live warp to its next
//     barrier (or retirement) per round.
//
// Lockstep is entered only when it is provably unobservable: the kernel
// passed decode's lockstepSafety analysis (no warp's load can see
// another warp's store within a launch), every warp is full-width, and
// no warp carries hooks (hook event order encodes the rounds schedule).
// The moment anything falls outside the proven envelope — divergence
// inside a warp, warps branching different ways, an unsupported or
// erroring instruction — the block detranspose-free falls back to the
// rounds driver mid-flight: each warp's stack and resume index are set
// to exactly the state the rounds schedule would reach, so memory,
// stats, hook traces, and error strings stay byte-identical (fuzzed
// against the per-lane reference by FuzzInterpEquivalence's multi-warp
// mode).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"owl/internal/isa"
)

// blockBatch gates the lockstep driver process-wide. It is always on
// outside tests, which turn it off to check the per-warp rounds driver
// against it: results are identical either way; only speed differs.
var blockBatch atomic.Bool

func init() { blockBatch.Store(true) }

// BlockRun executes all warps of one thread block against a shared
// block-wide register file. Create with NewBlockRun, drive with Run,
// recycle with Release.
type BlockRun struct {
	e        *Executor
	nW       int
	runs     []*WarpRun // owned by the BlockRun, recycled with it
	regs     []int64    // [slot][warp][lane] block register file
	lockstep bool
}

var blockRunPool = sync.Pool{New: func() any { return new(BlockRun) }}

// NewBlockRun prepares every warp of a thread block. wps, mems and hooks
// are parallel slices, one entry per warp; a nil hooks entry leaves that
// warp untraced. The lockstep driver engages only when the kernel is
// lockstep-safe, every warp is full-width, and no warp is traced.
func (e *Executor) NewBlockRun(wps []WarpParams, mems []Memory, hooks []Hooks) (*BlockRun, error) {
	nW := len(wps)
	if nW == 0 || len(mems) != nW || len(hooks) != nW {
		return nil, fmt.Errorf("simt: block of %d warps with %d memories, %d hooks",
			nW, len(mems), len(hooks))
	}
	lockstep := blockBatch.Load() && e.lockstepSafe && nW > 1
	for w := range wps {
		if err := checkWarpWidth(wps[w]); err != nil {
			return nil, err
		}
		if len(wps[w].Lanes) != WarpWidth || hooks[w] != nil {
			lockstep = false
		}
	}

	br := blockRunPool.Get().(*BlockRun)
	br.e = e
	br.nW = nW
	br.lockstep = lockstep
	for len(br.runs) < nW {
		br.runs = append(br.runs, new(WarpRun))
	}

	// One register file for the whole block, [slot][warp][lane]: slot s
	// occupies the contiguous row regs[s*nW*32 : (s+1)*nW*32], with warp
	// w's lanes at column w*32. Zeroing a must-init slot is one clear of
	// the whole row.
	n := e.numSlots * nW * WarpWidth
	if cap(br.regs) >= n {
		br.regs = br.regs[:n]
		if len(e.clearOffs)*2 >= e.numSlots {
			clear(br.regs)
		} else {
			for _, off := range e.clearOffs {
				row := int(off) * nW
				clear(br.regs[row : row+nW*WarpWidth])
			}
		}
	} else {
		br.regs = make([]int64, n)
	}

	for w := 0; w < nW; w++ {
		r := br.runs[w]
		e.initWarpRun(r, wps[w], mems[w], hooks[w])
		r.regs = br.regs
		r.rsN = nW
		r.rsB = w * WarpWidth
	}
	return br, nil
}

// Run drives the block to completion: lockstep while provably safe,
// rounds otherwise. onRetire (may be nil) fires once per warp as it
// retires, in the rounds schedule's order. The first error aborts the
// block, exactly as the rounds driver would surface it.
func (br *BlockRun) Run(onRetire func(w int)) error {
	runs := br.runs[:br.nW]
	if br.lockstep {
		fellBack, err := br.runLockstep(onRetire)
		if err != nil {
			return err
		}
		if !fellBack {
			return nil
		}
	}
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

// bail rewinds every warp onto the rounds driver at decoded index i of
// the current block (i == -1: block not yet entered). The warps' stacks
// are depth 1 by lockstep's construction, so this is exactly the state
// Resume's barrier-resume path expects.
func (br *BlockRun) bail(blockID, i int) {
	for _, r := range br.runs[:br.nW] {
		r.stack = r.stack[:1]
		r.stack[0] = simtEntry{pc: blockID, rpc: -1, mask: r.fullMask}
		r.resume = i
	}
	br.lockstep = false
}

// memFallback rewinds after warp w's memory instruction at index i
// errored: warps before w completed the instruction, w carries the
// error, warps after it have not reached it. The rounds driver then
// replays the schedule — earlier warps run ahead first, so an error they
// hit later still surfaces before w's, byte-identical to rounds-from-
// start under the lockstep-safety guarantee.
func (br *BlockRun) memFallback(blockID, i, w int, err error) {
	br.bail(blockID, i)
	for j := 0; j < w; j++ {
		br.runs[j].resume = i + 1
	}
	br.runs[w].resume = i + 1
	br.runs[w].pendingErr = err
}

// runLockstep executes whole blocks with every warp advancing together.
// Returns fellBack=true when the block switched to the rounds driver
// (state already rewound); false means every warp retired.
func (br *BlockRun) runLockstep(onRetire func(w int)) (fellBack bool, err error) {
	e := br.e
	nW := br.nW
	runs := br.runs[:nW]
	n32 := nW * WarpWidth
	regs := br.regs
	row := func(off int32) []int64 {
		s := int(off) * nW
		return regs[s : s+n32]
	}
	blockID := 0
	for {
		if runs[0].st.BlocksExecuted >= e.maxBlocks {
			// Let the rounds driver produce the canonical per-warp
			// infinite-loop error.
			br.bail(blockID, -1)
			return true, nil
		}
		for _, r := range runs {
			r.st.BlocksExecuted++
		}
		bp := &e.progs[blockID]
		ops := bp.ops

	opLoop:
		for i := range ops {
			u := &ops[i]
			inc := int64(u.icount) * WarpWidth
			switch u.class {
			case uNop, uBarrier:
				// Barriers are free in lockstep: every warp is at the
				// same position by construction, and a depth-1 stack
				// makes them legal exactly as Resume would check.

			case uConst:
				d, v := row(u.dst), u.imm
				for i := range d {
					d[i] = v
				}
			case uMov:
				copy(row(u.dst), row(u.a))
			case uNot:
				d, a := row(u.dst), row(u.a)
				for i := range d {
					d[i] = b2i(a[i] == 0)
				}
			case uSelect:
				d, a, b, c := row(u.dst), row(u.a), row(u.b), row(u.c)
				for i := range d {
					if a[i] != 0 {
						d[i] = b[i]
					} else {
						d[i] = c[i]
					}
				}

			case uSpecLane:
				for _, r := range runs {
					d, v := r.vec(u.dst), &r.laneVecs[u.lvec]
					copy(d[:], v[:])
				}
			case uSpecUni:
				for _, r := range runs {
					if r.uniErrs[u.a] != nil {
						// Rounds replays the read and surfaces the error
						// in warp-major order.
						br.bail(blockID, i)
						return true, nil
					}
				}
				for _, r := range runs {
					d, v := r.vec(u.dst), r.uniVals[u.a]
					for l := range d {
						d[l] = v
					}
				}

			case uShfl:
				for _, r := range runs {
					a := r.vec(u.a)
					copy(r.shfl[:], a[:])
					d, b := r.vec(u.dst), r.vec(u.b)
					for l := 0; l < WarpWidth; l++ {
						d[l] = r.shfl[uint64(b[l])%WarpWidth]
					}
				}

			case uLoad, uExtLoad:
				for w, r := range runs {
					r.st.Instructions += inc
					if r.direct {
						var backing []int64
						switch u.space {
						case isa.SpaceGlobal:
							backing = r.dGlobal
						case isa.SpaceConstant:
							backing = r.dConst
						case isa.SpaceShared:
							backing = r.dShared
						}
						if backing != nil {
							d, a := r.vec(u.dst), r.vec(u.a)
							sh, mv := uint64(0), int64(-1)
							if u.class == uExtLoad {
								sh, mv = uint64(u.b), u.imm2
							}
							imm, nb := u.imm, uint64(len(backing))
							ok := true
							for l := 0; l < WarpWidth; l++ {
								ad := int64(uint64(a[l])>>sh)&mv + imm
								if uint64(ad) >= nb {
									ok = false
									break
								}
								d[l] = backing[ad]
							}
							if ok {
								continue
							}
						}
					}
					if err := r.memLoad(u, blockID, r.fullMask, true, 0, WarpWidth); err != nil {
						br.memFallback(blockID, i, w, err)
						return true, nil
					}
				}
				continue opLoop
			case uStore:
				for w, r := range runs {
					r.st.Instructions += inc
					if r.direct {
						var backing []int64
						switch u.space {
						case isa.SpaceGlobal:
							backing = r.dGlobal
						case isa.SpaceShared:
							backing = r.dShared
						}
						if backing != nil {
							a, b := r.vec(u.a), r.vec(u.b)
							imm, nb := u.imm, uint64(len(backing))
							ok := true
							for l := 0; l < WarpWidth; l++ {
								ad := a[l] + imm
								if uint64(ad) >= nb {
									ok = false
									break
								}
								backing[ad] = b[l]
							}
							if ok {
								continue
							}
						}
					}
					if err := r.memStore(u, blockID, r.fullMask, true, 0, WarpWidth); err != nil {
						br.memFallback(blockID, i, w, err)
						return true, nil
					}
				}
				continue opLoop

			case uAdd:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = a[i] + b[i]
				}
			case uSub:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = a[i] - b[i]
				}
			case uMul:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = a[i] * b[i]
				}
			case uAnd:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = a[i] & b[i]
				}
			case uOr:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = a[i] | b[i]
				}
			case uXor:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = a[i] ^ b[i]
				}
			case uShl:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = a[i] << (uint64(b[i]) & 63)
				}
			case uShr:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = int64(uint64(a[i]) >> (uint64(b[i]) & 63))
				}
			case uSar:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = a[i] >> (uint64(b[i]) & 63)
				}
			case uMin:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = min(a[i], b[i])
				}
			case uMax:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = max(a[i], b[i])
				}

			case uCmpEQ:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = b2i(a[i] == b[i])
				}
			case uCmpNE:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = b2i(a[i] != b[i])
				}
			case uCmpLT:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = b2i(a[i] < b[i])
				}
			case uCmpLE:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = b2i(a[i] <= b[i])
				}
			case uCmpGT:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = b2i(a[i] > b[i])
				}
			case uCmpGE:
				d, a, b := row(u.dst), row(u.a), row(u.b)
				for i := range d {
					d[i] = b2i(a[i] >= b[i])
				}

			case uAddI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = a[i] + v
				}
			case uRSubI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = v - a[i]
				}
			case uMulI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = a[i] * v
				}
			case uDivI:
				if u.imm == 0 {
					br.bail(blockID, i)
					return true, nil
				}
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = a[i] / v
				}
			case uModI:
				if u.imm == 0 {
					br.bail(blockID, i)
					return true, nil
				}
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = a[i] % v
				}
			case uAndI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = a[i] & v
				}
			case uOrI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = a[i] | v
				}
			case uXorI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = a[i] ^ v
				}
			case uShlI:
				d, a := row(u.dst), row(u.a)
				sh := uint64(u.imm)
				for i := range d {
					d[i] = a[i] << sh
				}
			case uShrI:
				d, a := row(u.dst), row(u.a)
				sh := uint64(u.imm)
				for i := range d {
					d[i] = int64(uint64(a[i]) >> sh)
				}
			case uSarI:
				d, a := row(u.dst), row(u.a)
				sh := uint64(u.imm)
				for i := range d {
					d[i] = a[i] >> sh
				}
			case uMinI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = min(a[i], v)
				}
			case uMaxI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = max(a[i], v)
				}

			case uCmpEQI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = b2i(a[i] == v)
				}
			case uCmpNEI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = b2i(a[i] != v)
				}
			case uCmpLTI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = b2i(a[i] < v)
				}
			case uCmpLEI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = b2i(a[i] <= v)
				}
			case uCmpGTI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = b2i(a[i] > v)
				}
			case uCmpGEI:
				d, a, v := row(u.dst), row(u.a), u.imm
				for i := range d {
					d[i] = b2i(a[i] >= v)
				}

			case uExtBI:
				d, a := row(u.dst), row(u.a)
				sh, mv := uint64(u.b), u.imm2
				for i := range d {
					d[i] = int64(uint64(a[i])>>sh) & mv
				}
			case uXor3:
				d, a, b, c := row(u.dst), row(u.a), row(u.b), row(u.c)
				for i := range d {
					d[i] = a[i] ^ b[i] ^ c[i]
				}
			case uAdd3:
				d, a, b, c := row(u.dst), row(u.a), row(u.b), row(u.c)
				for i := range d {
					d[i] = a[i] + b[i] + c[i]
				}

			default:
				// uDiv/uMod (per-lane divisor checks), uBad, anything new:
				// the rounds driver executes it with canonical semantics.
				br.bail(blockID, i)
				return true, nil
			}
			for _, r := range runs {
				r.st.Instructions += inc
			}
		}

		switch bp.term.Kind {
		case isa.TermJump:
			br.addTail(bp)
			blockID = bp.term.True
		case isa.TermRet:
			br.addTail(bp)
			for _, r := range runs {
				r.stack = r.stack[:0]
				r.done = true
			}
			if onRetire != nil {
				for w := range runs {
					onRetire(w)
				}
			}
			return false, nil
		case isa.TermBranch:
			// One pass per warp over the condition register (always
			// written, fused or not). Any divergence — inside a warp or
			// across warps — ends lockstep at the terminator: the rounds
			// driver re-reads the condition and handles the stack push.
			allTrue, allFalse := true, true
			for _, r := range runs {
				cv := r.vec(bp.condOff)
				var tk uint32
				for l := 0; l < WarpWidth; l++ {
					if cv[l] != 0 {
						tk |= 1 << uint(l)
					}
				}
				switch tk {
				case 0:
					allTrue = false
				case ^uint32(0):
					allFalse = false
				default:
					allTrue, allFalse = false, false
				}
				if !allTrue && !allFalse {
					break
				}
			}
			switch {
			case allTrue:
				br.addTail(bp)
				blockID = bp.term.True
			case allFalse:
				br.addTail(bp)
				blockID = bp.term.False
			default:
				// resume = len(ops): Resume's re-entry executes no ops,
				// adds the tail count itself, and runs the terminator on
				// its unfused path.
				br.bail(blockID, len(ops))
				return true, nil
			}
		}
	}
}

// addTail counts the elided instructions after a block's last retained
// op, at block completion, exactly as Resume does.
func (br *BlockRun) addTail(bp *blockProg) {
	if bp.tailCount != 0 {
		for _, r := range br.runs[:br.nW] {
			r.st.Instructions += int64(bp.tailCount) * WarpWidth
		}
	}
}
