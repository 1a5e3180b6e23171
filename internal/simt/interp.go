package simt

// The warp-vectorized interpreter. Resume walks the SIMT reconvergence
// stack exactly as the original per-lane interpreter did — the hook event
// sequences ((block, mask) enters and (block, memIdx, space, store,
// addrs) accesses) are invariant under this rewrite — but each decoded
// instruction executes as ONE switch dispatch followed by a lane loop,
// instead of one dispatch per active lane:
//
//   - the active-mask test is hoisted per block: any contiguous run of
//     active lanes (the common shape — full warps, and guard-trimmed
//     warps like "if (tid < n)") takes a dense lo..hi loop with no
//     per-lane mask check; only genuinely fragmented masks iterate set
//     bits with m &= m-1 / TrailingZeros32;
//   - register vectors are *[WarpWidth]int64 windows into the SoA file,
//     so lane indexing is one add against a constant-size array;
//   - immediate-form classes (decode.go) keep one operand in the uop,
//     halving the vector traffic of const-fed ALU ops;
//   - loads and stores index DirectMemory backing slices in range and
//     re-issue through the Memory interface out of range, keeping the
//     interface path's diagnostics byte-compatible; untraced warps
//     (hooks == nil) skip the address-buffer bookkeeping entirely;
//   - instruction counting adds icount × popcount(mask) per decoded
//     instruction, which accounts for elided instructions at exactly the
//     point the unoptimized program would have counted them.

import (
	"fmt"
	"math/bits"

	"owl/internal/isa"
)

// Resume executes until the warp retires (returns false) or reaches a
// barrier (returns true). A barrier inside divergent control flow is an
// error, as on real hardware.
func (r *WarpRun) Resume() (atBarrier bool, err error) {
	if r.done {
		return false, nil
	}
	e := r.exec

	for len(r.stack) > 0 {
		top := &r.stack[len(r.stack)-1]
		if top.mask == 0 || top.pc == top.rpc || top.pc < 0 {
			r.stack = r.stack[:len(r.stack)-1]
			continue
		}
		if r.st.BlocksExecuted >= e.maxBlocks {
			return false, fmt.Errorf("simt: kernel %q warp %d exceeded %d blocks (possible infinite loop)",
				e.kernel.Name, r.wp.WarpID, e.maxBlocks)
		}
		blockID := top.pc
		mask := top.mask
		bp := &e.progs[blockID]

		start := 0
		if r.resume >= 0 {
			// Continuing past a barrier: the block was already entered.
			start = r.resume
			r.resume = -1
		} else {
			r.st.BlocksExecuted++
			if r.hooks != nil {
				r.hooks.OnBlockEnter(blockID, mask)
			}
		}

		var taken uint32
		bar, err := r.execBlock(bp, blockID, mask, start, &taken)
		if err != nil {
			return false, err
		}
		if bar {
			return true, nil
		}
		if bp.tailCount != 0 {
			// Elided instructions after the last retained op: counted when
			// the block completes, exactly where the original code counted
			// them (never on a barrier suspension or an earlier error).
			r.st.Instructions += int64(bp.tailCount) * int64(bits.OnesCount32(mask))
		}

		switch bp.term.Kind {
		case isa.TermJump:
			top.pc = bp.term.True
		case isa.TermRet:
			// Retire these lanes from every entry below.
			done := top.mask
			r.stack = r.stack[:len(r.stack)-1]
			for i := range r.stack {
				r.stack[i].mask &^= done
			}
		case isa.TermBranch:
			if !(bp.fused && start < len(bp.ops)) {
				// Unfused: one pass over the condition register.
				cv := r.vec(bp.condOff)
				taken = 0
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if cv[l] != 0 {
						taken |= 1 << uint(l)
					}
				}
			}
			fall := mask &^ taken
			switch {
			case fall == 0:
				top.pc = bp.term.True
			case taken == 0:
				top.pc = bp.term.False
			default:
				rpc := bp.ipdom
				// Convert TOS into the reconvergence entry, then push the
				// two sides; the taken side executes first.
				top.pc = rpc
				r.stack = append(r.stack,
					simtEntry{pc: bp.term.False, rpc: rpc, mask: fall},
					simtEntry{pc: bp.term.True, rpc: rpc, mask: taken},
				)
			}
		}
	}
	r.done = true
	return false, nil
}

// execBlock runs the decoded instructions of one block from start under
// mask. taken receives the taken-lane mask of a fused trailing compare.
func (r *WarpRun) execBlock(bp *blockProg, blockID int, mask uint32, start int, taken *uint32) (atBarrier bool, err error) {
	nAct := int64(bits.OnesCount32(mask))
	// Any contiguous run of active lanes — not just the full warp — takes
	// the dense loops.
	lo := bits.TrailingZeros32(mask)
	span := mask >> uint(lo&31)
	dense := span&(span+1) == 0
	hi := lo + int(nAct)
	ops := bp.ops
	// Counts accumulate locally and flush once on every exit path; the
	// running total still includes the current op before it executes
	// (count-before-execute), since cnt is bumped at the top of the loop.
	var cnt int64
	defer func() { r.st.Instructions += cnt * nAct }()
	for i := start; i < len(ops); i++ {
		u := &ops[i]
		cnt += int64(u.icount)
		switch u.class {
		case uNop:
		case uBarrier:
			if len(r.stack) != 1 {
				return false, fmt.Errorf("simt: kernel %q B%d: barrier inside divergent control flow",
					r.exec.kernel.Name, blockID)
			}
			r.resume = i + 1
			return true, nil

		case uConst:
			d, v := r.vec(u.dst), u.imm
			if dense {
				dd := d[lo:hi]
				for i := range dd {
					dd[i] = v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					d[bits.TrailingZeros32(m)] = v
				}
			}
		case uMov:
			d, a := r.vec(u.dst), r.vec(u.a)
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l]
				}
			}
		case uNot:
			d, a := r.vec(u.dst), r.vec(u.a)
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = b2i(aa[i] == 0)
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = b2i(a[l] == 0)
				}
			}
		case uSelect:
			d, a, b, c := r.vec(u.dst), r.vec(u.a), r.vec(u.b), r.vec(u.c)
			if dense {
				dd, aa, bb, cc := d[lo:hi], a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range dd {
					if aa[i] != 0 {
						dd[i] = bb[i]
					} else {
						dd[i] = cc[i]
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] != 0 {
						d[l] = b[l]
					} else {
						d[l] = c[l]
					}
				}
			}

		case uSpecLane:
			d, v := r.vec(u.dst), &r.laneVecs[u.lvec]
			if dense {
				dd, vv := d[lo:hi], v[lo:hi]
				for i := range dd {
					dd[i] = vv[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = v[l]
				}
			}
		case uSpecUni:
			if serr := r.uniErrs[u.a]; serr != nil {
				return false, r.instrErr(blockID, u, bits.TrailingZeros32(mask), serr)
			}
			d, v := r.vec(u.dst), r.uniVals[u.a]
			if dense {
				dd := d[lo:hi]
				for i := range dd {
					dd[i] = v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					d[bits.TrailingZeros32(m)] = v
				}
			}

		case uShfl:
			// Cross-lane read: every lane sees the pre-instruction value
			// of the source register, via the per-run scratch snapshot.
			nl := r.nl
			a := r.vec(u.a)
			copy(r.shfl[:nl], a[:nl])
			d, b := r.vec(u.dst), r.vec(u.b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				d[l] = r.shfl[uint64(b[l])%uint64(nl)]
			}

		case uLoad, uExtLoad:
			// Untraced dense fast path: loads are pure, so on any
			// out-of-range lane the whole instruction redoes through the
			// full path (interface re-issue, error attribution) unchanged.
			if r.hooks == nil && r.direct && dense {
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
					dd, aa := d[lo:hi], a[lo:hi]
					if mv >= 0 && imm >= 0 && uint64(mv+imm) < nb {
						// The extract mask bounds the address statically:
						// ad ∈ [imm, mv+imm] is in range for every lane
						// (table lookups hit this — the address is a masked
						// byte). Reslicing to the table and indexing with
						// idx&msk ≤ msk = len(tbl)-1 lets the compiler drop
						// the per-lane bounds check.
						tbl := backing[imm : imm+mv+1]
						msk := uint64(len(tbl) - 1)
						for i := range dd {
							dd[i] = tbl[uint64(aa[i])>>sh&msk]
						}
						break
					}
					ok := true
					for i := range dd {
						ad := int64(uint64(aa[i])>>sh)&mv + imm
						if uint64(ad) >= nb {
							ok = false
							break
						}
						dd[i] = backing[ad]
					}
					if ok {
						break
					}
				}
			}
			if err := r.memLoad(u, blockID, mask, dense, lo, hi); err != nil {
				return false, err
			}
		case uStore:
			// Same shape for stores: a redo re-writes identical values to
			// identical addresses, so partial progress before an
			// out-of-range lane is invisible.
			if r.hooks == nil && r.direct && dense {
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
					aa, bb := a[lo:hi], b[lo:hi]
					for i := range aa {
						ad := aa[i] + imm
						if uint64(ad) >= nb {
							ok = false
							break
						}
						backing[ad] = bb[i]
					}
					if ok {
						break
					}
				}
			}
			if err := r.memStore(u, blockID, mask, dense, lo, hi); err != nil {
				return false, err
			}

		case uAdd:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = aa[i] + bb[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] + b[l]
				}
			}
		case uSub:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = aa[i] - bb[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] - b[l]
				}
			}
		case uMul:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = aa[i] * bb[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] * b[l]
				}
			}
		case uDiv:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if b[l] == 0 {
					return false, r.instrErr(blockID, u, l, fmt.Errorf("division by zero"))
				}
				d[l] = a[l] / b[l]
			}
		case uMod:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if b[l] == 0 {
					return false, r.instrErr(blockID, u, l, fmt.Errorf("modulo by zero"))
				}
				d[l] = a[l] % b[l]
			}
		case uAnd:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = aa[i] & bb[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] & b[l]
				}
			}
		case uOr:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = aa[i] | bb[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] | b[l]
				}
			}
		case uXor:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = aa[i] ^ bb[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] ^ b[l]
				}
			}
		case uShl:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = aa[i] << (uint64(bb[i]) & 63)
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] << (uint64(b[l]) & 63)
				}
			}
		case uShr:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = int64(uint64(aa[i]) >> (uint64(bb[i]) & 63))
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = int64(uint64(a[l]) >> (uint64(b[l]) & 63))
				}
			}
		case uSar:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = aa[i] >> (uint64(bb[i]) & 63)
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] >> (uint64(b[l]) & 63)
				}
			}
		case uMin:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = min(aa[i], bb[i])
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = min(a[l], b[l])
				}
			}
		case uMax:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					dd[i] = max(aa[i], bb[i])
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = max(a[l], b[l])
				}
			}

		case uCmpEQ:
			d, a, b := r.vec(u.dst), r.vec(u.b), r.vec(u.a)
			var tk uint32
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					if bb[i] == aa[i] {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if b[l] == a[l] {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpNE:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			var tk uint32
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					if aa[i] != bb[i] {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] != b[l] {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpLT:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			var tk uint32
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					if aa[i] < bb[i] {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] < b[l] {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpLE:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			var tk uint32
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					if aa[i] <= bb[i] {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] <= b[l] {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpGT:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			var tk uint32
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					if aa[i] > bb[i] {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] > b[l] {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpGE:
			d, a, b := r.vec(u.dst), r.vec(u.a), r.vec(u.b)
			var tk uint32
			if dense {
				dd, aa, bb := d[lo:hi], a[lo:hi], b[lo:hi]
				for i := range dd {
					if aa[i] >= bb[i] {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] >= b[l] {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk

		case uAddI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] + v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] + v
				}
			}
		case uRSubI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = v - aa[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = v - a[l]
				}
			}
		case uMulI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] * v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] * v
				}
			}
		case uDivI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if v == 0 {
				return false, r.instrErr(blockID, u, bits.TrailingZeros32(mask),
					fmt.Errorf("division by zero"))
			}
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] / v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] / v
				}
			}
		case uModI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if v == 0 {
				return false, r.instrErr(blockID, u, bits.TrailingZeros32(mask),
					fmt.Errorf("modulo by zero"))
			}
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] % v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] % v
				}
			}
		case uAndI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] & v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] & v
				}
			}
		case uOrI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] | v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] | v
				}
			}
		case uXorI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] ^ v
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] ^ v
				}
			}
		case uShlI:
			d, a := r.vec(u.dst), r.vec(u.a)
			sh := uint64(u.imm) // pre-masked at decode
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] << sh
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] << sh
				}
			}
		case uShrI:
			d, a := r.vec(u.dst), r.vec(u.a)
			sh := uint64(u.imm)
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = int64(uint64(aa[i]) >> sh)
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = int64(uint64(a[l]) >> sh)
				}
			}
		case uSarI:
			d, a := r.vec(u.dst), r.vec(u.a)
			sh := uint64(u.imm)
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = aa[i] >> sh
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] >> sh
				}
			}
		case uMinI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = min(aa[i], v)
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = min(a[l], v)
				}
			}
		case uMaxI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = max(aa[i], v)
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = max(a[l], v)
				}
			}

		case uCmpEQI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			var tk uint32
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					if aa[i] == v {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] == v {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpNEI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			var tk uint32
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					if aa[i] != v {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] != v {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpLTI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			var tk uint32
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					if aa[i] < v {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] < v {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpLEI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			var tk uint32
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					if aa[i] <= v {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] <= v {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpGTI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			var tk uint32
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					if aa[i] > v {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] > v {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk
		case uCmpGEI:
			d, a, v := r.vec(u.dst), r.vec(u.a), u.imm
			var tk uint32
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					if aa[i] >= v {
						dd[i] = 1
						tk |= 1 << uint(lo+i)
					} else {
						dd[i] = 0
					}
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if a[l] >= v {
						d[l] = 1
						tk |= 1 << uint(l)
					} else {
						d[l] = 0
					}
				}
			}
			*taken = tk

		case uExtBI:
			d, a := r.vec(u.dst), r.vec(u.a)
			sh, mv := uint64(u.b), u.imm2
			if dense {
				dd, aa := d[lo:hi], a[lo:hi]
				for i := range dd {
					dd[i] = int64(uint64(aa[i])>>sh) & mv
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = int64(uint64(a[l])>>sh) & mv
				}
			}
		case uXor3:
			d, a, b, c := r.vec(u.dst), r.vec(u.a), r.vec(u.b), r.vec(u.c)
			if dense {
				dd, aa, bb, cc := d[lo:hi], a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range dd {
					dd[i] = aa[i] ^ bb[i] ^ cc[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] ^ b[l] ^ c[l]
				}
			}
		case uAdd3:
			d, a, b, c := r.vec(u.dst), r.vec(u.a), r.vec(u.b), r.vec(u.c)
			if dense {
				dd, aa, bb, cc := d[lo:hi], a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range dd {
					dd[i] = aa[i] + bb[i] + cc[i]
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					d[l] = a[l] + b[l] + c[l]
				}
			}

		default:
			return false, r.instrErr(blockID, u, bits.TrailingZeros32(mask),
				fmt.Errorf("unknown opcode %v", isa.Op(u.imm)))
		}
		// Microarchitectural cost collection: the power-proxy feed. Only
		// warps whose hooks implement CostHooks pay the call; for everyone
		// else (including the always-on tracer) this is one predictable
		// nil test per retained uop.
		if r.cost != nil && u.writes {
			r.cost.OnRegWrite(blockID, int(u.ci), r.vec(u.dst), mask)
		}
	}
	return false, nil
}

// instrErr attributes an execution error to its kernel/block/instruction/
// lane, in the same shape as the per-lane interpreter did.
func (r *WarpRun) instrErr(blockID int, u *uop, lane int, err error) error {
	return fmt.Errorf("simt: kernel %q B%d instr %d lane %d: %w",
		r.exec.kernel.Name, blockID, u.ci, lane, err)
}

// memLoad executes one load instruction across the warp and fires the
// memory hook. In-range DirectMemory accesses index the backing slice;
// everything else goes through the Memory interface. Untraced warps skip
// the address buffer entirely.
func (r *WarpRun) memLoad(u *uop, blockID int, mask uint32, dense bool, lo, hi int) error {
	d, av := r.vec(u.dst), r.vec(u.a)
	imm := u.imm
	if u.class == uExtLoad {
		// Fold the byte-extract into the address base: one pass over the
		// active lanes into the shfl scratch (free outside uShfl), then
		// the load paths below proceed unchanged.
		sh, mv := uint64(u.b), u.imm2
		x := &r.shfl
		if dense {
			xx, aa := x[lo:hi], av[lo:hi]
			for i := range xx {
				xx[i] = int64(uint64(aa[i])>>sh) & mv
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				x[l] = int64(uint64(av[l])>>sh) & mv
			}
		}
		av = x
	}
	traced := r.hooks != nil
	addrs := r.scratch[:0]

	var backing []int64
	direct := false
	if r.direct {
		switch u.space {
		case isa.SpaceGlobal:
			backing, direct = r.dGlobal, r.dGlobal != nil
		case isa.SpaceConstant:
			backing, direct = r.dConst, r.dConst != nil
		case isa.SpaceShared:
			backing, direct = r.dShared, r.dShared != nil
		case isa.SpaceLocal:
			if ls := r.dLocal; ls != nil {
				if dense {
					for l := lo; l < hi; l++ {
						ad := av[l] + imm
						d[l] = ls.Load(l, ad)
						if traced {
							addrs = append(addrs, ad)
						}
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m)
						ad := av[l] + imm
						d[l] = ls.Load(l, ad)
						addrs = append(addrs, ad)
					}
				}
				r.fireMem(u, blockID, false, addrs)
				return nil
			}
		}
	}

	if direct {
		if dense && !traced {
			// Untraced fast path: no address bookkeeping.
			for l := lo; l < hi; l++ {
				ad := av[l] + imm
				if uint64(ad) < uint64(len(backing)) {
					d[l] = backing[ad]
				} else {
					v, err := r.mem.Load(u.space, l, ad)
					if err != nil {
						return r.instrErr(blockID, u, l, err)
					}
					d[l] = v
				}
			}
			return nil
		}
		if dense {
			for l := lo; l < hi; l++ {
				ad := av[l] + imm
				if uint64(ad) < uint64(len(backing)) {
					d[l] = backing[ad]
				} else {
					v, err := r.mem.Load(u.space, l, ad)
					if err != nil {
						return r.instrErr(blockID, u, l, err)
					}
					d[l] = v
				}
				addrs = append(addrs, ad)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				ad := av[l] + imm
				if uint64(ad) < uint64(len(backing)) {
					d[l] = backing[ad]
				} else {
					v, err := r.mem.Load(u.space, l, ad)
					if err != nil {
						return r.instrErr(blockID, u, l, err)
					}
					d[l] = v
				}
				addrs = append(addrs, ad)
			}
		}
	} else {
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ad := av[l] + imm
			v, err := r.mem.Load(u.space, l, ad)
			if err != nil {
				return r.instrErr(blockID, u, l, err)
			}
			d[l] = v
			addrs = append(addrs, ad)
		}
	}
	r.fireMem(u, blockID, false, addrs)
	return nil
}

// memStore executes one store instruction across the warp and fires the
// memory hook.
func (r *WarpRun) memStore(u *uop, blockID int, mask uint32, dense bool, lo, hi int) error {
	av, bv := r.vec(u.a), r.vec(u.b)
	imm := u.imm
	traced := r.hooks != nil
	addrs := r.scratch[:0]

	var backing []int64
	direct := false
	if r.direct {
		switch u.space {
		case isa.SpaceGlobal:
			backing, direct = r.dGlobal, r.dGlobal != nil
		case isa.SpaceShared:
			backing, direct = r.dShared, r.dShared != nil
		case isa.SpaceLocal:
			if ls := r.dLocal; ls != nil {
				if dense {
					for l := lo; l < hi; l++ {
						ad := av[l] + imm
						ls.Store(l, ad, bv[l])
						if traced {
							addrs = append(addrs, ad)
						}
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m)
						ad := av[l] + imm
						ls.Store(l, ad, bv[l])
						addrs = append(addrs, ad)
					}
				}
				r.fireMem(u, blockID, true, addrs)
				return nil
			}
		}
		// Constant stays indirect: stores to it must produce the
		// memory's read-only diagnostic.
	}

	if direct {
		if dense && !traced {
			for l := lo; l < hi; l++ {
				ad := av[l] + imm
				if uint64(ad) < uint64(len(backing)) {
					backing[ad] = bv[l]
				} else if err := r.mem.Store(u.space, l, ad, bv[l]); err != nil {
					return r.instrErr(blockID, u, l, err)
				}
			}
			return nil
		}
		if dense {
			for l := lo; l < hi; l++ {
				ad := av[l] + imm
				if uint64(ad) < uint64(len(backing)) {
					backing[ad] = bv[l]
				} else if err := r.mem.Store(u.space, l, ad, bv[l]); err != nil {
					return r.instrErr(blockID, u, l, err)
				}
				addrs = append(addrs, ad)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				ad := av[l] + imm
				if uint64(ad) < uint64(len(backing)) {
					backing[ad] = bv[l]
				} else if err := r.mem.Store(u.space, l, ad, bv[l]); err != nil {
					return r.instrErr(blockID, u, l, err)
				}
				addrs = append(addrs, ad)
			}
		}
	} else {
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ad := av[l] + imm
			if err := r.mem.Store(u.space, l, ad, bv[l]); err != nil {
				return r.instrErr(blockID, u, l, err)
			}
			addrs = append(addrs, ad)
		}
	}
	r.fireMem(u, blockID, true, addrs)
	return nil
}

// fireMem delivers one memory-access event. The addrs buffer is owned by
// the run and reused; hooks must not retain it.
func (r *WarpRun) fireMem(u *uop, blockID int, store bool, addrs []int64) {
	if r.hooks != nil {
		r.hooks.OnMemAccess(blockID, int(u.memIdx), u.space, store, addrs)
	}
}
