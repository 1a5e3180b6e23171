package simt

// Decode-once lowering. NewExecutor pre-lowers every basic block of the
// kernel into a compact internal program so the interpreter's per-
// instruction work is a single switch on a dense class tag:
//
//   - register operands become precomputed offsets into the SoA register
//     file (slot*WarpWidth), so the inner lane loops index with one add;
//   - memory instructions carry their memory-instruction index (the
//     hook's memIdx) instead of looking it up per execution;
//   - special-register reads split into per-lane vectors (tid, laneid,
//     global tid — precomputed once per warp) and warp-uniform slots
//     (ctaid, ntid, nctaid, warpid, kernel parameters — resolved to
//     immediates at warp setup);
//   - a trailing comparison whose destination is the block's branch
//     condition is tagged for fusion: the compare records the taken mask
//     as it executes, so the terminator needs no second pass over the
//     condition register (the register is still written, in case a later
//     block reads it);
//   - each branch block carries its immediate post-dominator, the SIMT
//     reconvergence point, so divergence handling does no graph lookup.
//
// On top of the structural lowering, decode runs an optimization pipeline
// whose output is observably identical to executing the original code
// (hook traces, memory effects, statistics, and error strings all
// included — the equivalence is fuzz-checked against the per-lane
// reference in ref_test.go):
//
//   - constant propagation: registers written exactly once, by OpConst,
//     are known in every block their definition dominates; within a
//     block, constants additionally propagate in scan order. ALU ops
//     with one known operand lower to immediate-form classes (uAddI,
//     uAndI, ...), ops with both known fold to uConst. Trapping ops
//     (div/mod by a known zero) are never folded so the runtime error
//     and its lane attribution survive.
//   - address affinity: chains of "base + const" adds feeding loads and
//     stores fold into the memory op's displacement, so a t-table lookup
//     is one uLoad instead of add+add+load.
//   - dead-op elision: side-effect-free ops whose destination is never
//     read are dropped. Each retained op carries icount — 1 plus the
//     number of elided ops immediately preceding it — and each block
//     carries tailCount for elided ops after the last retained op, so
//     Stats.Instructions stays exactly what the unoptimized program
//     would report at every prefix, including error exits. Ops that can
//     trap (div/mod, loads, stores, uniform specials) are never elided.
//   - register renumbering: surviving registers are packed into a dense
//     slot space, shrinking the register file the interpreter must clear
//     per warp (kernels built with throwaway constant registers drop to
//     a fraction of their declared NumRegs).
//
// Lowering happens once per Executor; the lowered form is immutable and
// shared by every warp of every launch of the kernel.

import (
	"owl/internal/cfg"
	"owl/internal/isa"
)

// uopClass is the dense dispatch tag of a lowered instruction. ALU and
// comparison opcodes each get their own class so the interpreter's switch
// lands directly in a lane loop with the operation inlined; immediate
// forms (one operand folded to a constant) get separate classes so the
// loop body carries no operand-kind test.
type uopClass uint8

const (
	uBad uopClass = iota // validation should make this unreachable
	uNop
	uBarrier
	uConst
	uMov
	uNot
	uSelect
	uLoad
	uStore
	uSpecLane // per-lane special: copy of a precomputed lane vector
	uSpecUni  // warp-uniform special: broadcast of a per-warp immediate
	uShfl
	uAdd
	uSub
	uMul
	uDiv
	uMod
	uAnd
	uOr
	uXor
	uShl
	uShr
	uSar
	uMin
	uMax
	uCmpEQ
	uCmpNE
	uCmpLT
	uCmpLE
	uCmpGT
	uCmpGE
	// Immediate forms: dst = a <op> imm (uRSubI is imm - a).
	uAddI
	uRSubI
	uMulI
	uDivI
	uModI
	uAndI
	uOrI
	uXorI
	uShlI
	uShrI
	uSarI
	uMinI
	uMaxI
	uCmpEQI
	uCmpNEI
	uCmpLTI
	uCmpLEI
	uCmpGTI
	uCmpGEI
	// Fused forms, produced by the peephole pass: single-use value chains
	// collapse into one dispatch. b carries the shift count and imm2 the
	// mask for the extract forms; imm stays the load displacement.
	uExtBI   // dst = (a >>u sh) & m
	uExtLoad // dst = mem[space][((a >>u sh) & m) + imm]
	uXor3    // dst = a ^ b ^ c
	uAdd3    // dst = a + b + c
)

// aluUclass maps binary-ALU and comparison opcodes to their dedicated
// register-form dispatch tags.
var aluUclass = map[isa.Op]uopClass{
	isa.OpAdd:   uAdd,
	isa.OpSub:   uSub,
	isa.OpMul:   uMul,
	isa.OpDiv:   uDiv,
	isa.OpMod:   uMod,
	isa.OpAnd:   uAnd,
	isa.OpOr:    uOr,
	isa.OpXor:   uXor,
	isa.OpShl:   uShl,
	isa.OpShr:   uShr,
	isa.OpSar:   uSar,
	isa.OpMin:   uMin,
	isa.OpMax:   uMax,
	isa.OpCmpEQ: uCmpEQ,
	isa.OpCmpNE: uCmpNE,
	isa.OpCmpLT: uCmpLT,
	isa.OpCmpLE: uCmpLE,
	isa.OpCmpGT: uCmpGT,
	isa.OpCmpGE: uCmpGE,
}

// Indices of the per-lane special vectors precomputed at warp setup.
const (
	lvTidX = iota
	lvTidY
	lvTidZ
	lvLane
	lvGID
	numLaneVecs
)

// uop is one lowered instruction. Register fields hold precomputed
// offsets into the SoA register file (slot * WarpWidth) — slots are the
// renumbered register space, not original register ids.
type uop struct {
	class  uopClass
	lvec   uint8     // uSpecLane: lane-vector index
	space  isa.Space // uLoad/uStore
	icount int32     // instructions this op accounts for (1 + elided before it)
	dst    int32
	a      int32 // (uSpecUni reuses a as the uniform-slot index)
	b      int32 // (uExtBI/uExtLoad reuse b as the shift count)
	c      int32
	imm    int64
	imm2   int64 // uExtBI/uExtLoad: extract mask
	memIdx int32 // uLoad/uStore: index among the block's memory instructions
	ci     int32 // original code index, for error attribution
	writes bool  // op writes dst — fires CostHooks.OnRegWrite when collecting
}

// blockProg is one lowered basic block.
type blockProg struct {
	ops       []uop
	term      isa.Terminator
	ipdom     int   // reconvergence block for a divergent branch
	fused     bool  // last op is a comparison writing term.Cond
	condOff   int32 // renumbered register-file offset of term.Cond
	tailCount int32 // elided instructions after the last retained op
}

// protoOp is the lowering intermediate: like uop but with register ids
// instead of renumbered file offsets, plus the elision mark.
type protoOp struct {
	class  uopClass
	lvec   uint8
	space  isa.Space
	dst    isa.Reg
	a      isa.Reg
	b      isa.Reg
	c      isa.Reg
	slot   int32 // uSpecUni uniform-slot index; uExtBI/uExtLoad shift count
	imm    int64
	imm2   int64 // uExtBI/uExtLoad extract mask
	memIdx int32
	ci     int32
	elided bool
}

// protoReads invokes f for every register the op reads.
func (p *protoOp) protoReads(f func(isa.Reg)) {
	switch p.class {
	case uMov, uNot:
		f(p.a)
	case uSelect:
		f(p.a)
		f(p.b)
		f(p.c)
	case uLoad, uExtBI, uExtLoad:
		f(p.a)
	case uStore, uShfl:
		f(p.a)
		f(p.b)
	case uXor3, uAdd3:
		f(p.a)
		f(p.b)
		f(p.c)
	default:
		switch {
		case p.class >= uAdd && p.class <= uCmpGE:
			f(p.a)
			f(p.b)
		case p.class >= uAddI && p.class <= uCmpGEI:
			f(p.a)
		}
	}
}

// writesDst reports whether the op writes its destination register.
func (p *protoOp) writesDst() bool {
	switch p.class {
	case uNop, uBarrier, uStore, uBad:
		return false
	}
	return true
}

// elidable reports whether the op may be dropped when its destination is
// never read: it must be free of side effects AND free of runtime traps
// (div/mod can divide by zero, loads/stores can fault or fire hooks,
// uniform specials can carry a deferred parameter error, uBad traps).
func (p *protoOp) elidable() bool {
	switch p.class {
	case uNop, uConst, uMov, uNot, uSelect, uSpecLane, uShfl,
		uAdd, uSub, uMul, uAnd, uOr, uXor, uShl, uShr, uSar, uMin, uMax,
		uCmpEQ, uCmpNE, uCmpLT, uCmpLE, uCmpGT, uCmpGE,
		uAddI, uRSubI, uMulI, uAndI, uOrI, uXorI, uShlI, uShrI, uSarI,
		uMinI, uMaxI,
		uCmpEQI, uCmpNEI, uCmpLTI, uCmpLEI, uCmpGTI, uCmpGEI,
		uExtBI, uXor3, uAdd3:
		return true
	}
	return false
}

// knownVal is the constant-propagation lattice value of one register.
type knownVal struct {
	v  int64
	ok bool
}

// affineVal records dst = root + off, for folding add-chains into memory
// displacements. Valid only while neither dst nor root is rewritten, and
// only within one block.
type affineVal struct {
	root isa.Reg
	off  int64
	ok   bool
}

// lower decodes every block of the executor's kernel. The kernel has
// already been validated by cfg.New.
func (e *Executor) lower() {
	k := e.kernel
	nb := len(k.Blocks)

	// --- Global analysis -------------------------------------------------

	// Registers written exactly once, by OpConst: known in every block
	// their defining block strictly dominates.
	writeCount := make([]int, k.NumRegs)
	constDef := make([]struct {
		block int
		imm   int64
		isC   bool
	}, k.NumRegs)
	for bi, b := range k.Blocks {
		for ci := range b.Code {
			in := &b.Code[ci]
			if writesReg(in.Op) {
				writeCount[in.Dst]++
				if in.Op == isa.OpConst {
					constDef[in.Dst] = struct {
						block int
						imm   int64
						isC   bool
					}{bi, in.Imm, true}
				}
			}
		}
	}
	globalConst := func(r isa.Reg) (int, int64, bool) {
		if writeCount[r] == 1 && constDef[r].isC {
			return constDef[r].block, constDef[r].imm, true
		}
		return 0, 0, false
	}

	dom := computeDominators(nb, e.graph)

	// --- Per-block lowering with constant/affine propagation ------------

	kn := make([]knownVal, k.NumRegs)
	af := make([]affineVal, k.NumRegs)
	protos := make([][]protoOp, nb)
	uniSlots := make(map[int64]int32)

	for bi, b := range k.Blocks {
		// Seed constants from strictly-dominating single-const defs; a def
		// in this very block becomes known only once scanned (a use above
		// it may execute on a first loop entry before the def ever ran).
		for r := range kn {
			kn[r] = knownVal{}
			af[r] = affineVal{}
			if db, imm, ok := globalConst(isa.Reg(r)); ok && db != bi && dom.dominates(db, bi) {
				kn[r] = knownVal{v: imm, ok: true}
			}
		}

		resolve := func(r isa.Reg) (isa.Reg, int64) {
			if af[r].ok {
				return af[r].root, af[r].off
			}
			return r, 0
		}
		setWritten := func(d isa.Reg) {
			kn[d] = knownVal{}
			af[d] = affineVal{}
			for i := range af {
				if af[i].ok && af[i].root == d {
					af[i] = affineVal{}
				}
			}
		}

		out := protos[bi][:0]
		nMem := int32(0)
		for ci := range b.Code {
			in := &b.Code[ci]
			p := protoOp{
				dst: in.Dst, a: in.A, b: in.B, c: in.C,
				imm: in.Imm, space: in.Space, memIdx: -1, ci: int32(ci),
			}
			// emitConst lowers the op to a known-constant write of d.
			emitConst := func(d isa.Reg, v int64) {
				p.class = uConst
				p.dst, p.imm = d, v
				setWritten(d)
				kn[d] = knownVal{v: v, ok: true}
				out = append(out, p)
			}
			// emitMovLike lowers d = src, propagating known/affine state.
			emitMovLike := func(d, src isa.Reg) {
				if kn[src].ok {
					emitConst(d, kn[src].v)
					return
				}
				root, off := resolve(src)
				p.class = uMov
				p.dst, p.a = d, src
				setWritten(d)
				if root != d {
					af[d] = affineVal{root: root, off: off, ok: true}
				}
				out = append(out, p)
			}

			switch in.Op {
			case isa.OpNop:
				p.class = uNop
				out = append(out, p)
			case isa.OpBarrier:
				p.class = uBarrier
				out = append(out, p)
			case isa.OpConst:
				emitConst(in.Dst, in.Imm)
			case isa.OpMov:
				emitMovLike(in.Dst, in.A)
			case isa.OpNot:
				if kn[in.A].ok {
					emitConst(in.Dst, b2i(kn[in.A].v == 0))
					break
				}
				p.class = uNot
				setWritten(in.Dst)
				out = append(out, p)
			case isa.OpSelect:
				if kn[in.A].ok {
					if kn[in.A].v != 0 {
						emitMovLike(in.Dst, in.B)
					} else {
						emitMovLike(in.Dst, in.C)
					}
					break
				}
				p.class = uSelect
				setWritten(in.Dst)
				out = append(out, p)
			case isa.OpLoad, isa.OpStore:
				root, off := resolve(in.A)
				p.a, p.imm = root, in.Imm+off
				p.memIdx = nMem
				nMem++
				if in.Op == isa.OpStore {
					p.class = uStore
				} else {
					p.class = uLoad
					setWritten(in.Dst)
				}
				out = append(out, p)
			case isa.OpSpecial:
				if lv, perLane := laneVecFor(in.Imm); perLane {
					p.class = uSpecLane
					p.lvec = lv
				} else {
					p.class = uSpecUni
					slot, ok := uniSlots[in.Imm]
					if !ok {
						slot = int32(len(e.uniSels))
						uniSlots[in.Imm] = slot
						e.uniSels = append(e.uniSels, in.Imm)
					}
					p.slot = slot
				}
				setWritten(in.Dst)
				out = append(out, p)
			case isa.OpShfl:
				p.class = uShfl
				setWritten(in.Dst)
				out = append(out, p)
			default:
				cls, ok := aluUclass[in.Op]
				if !ok {
					p.class = uBad
					p.imm = int64(in.Op) // preserved for the runtime diagnostic
					out = append(out, p)
					break
				}
				ka, kb := kn[in.A], kn[in.B]
				trapDiv := (in.Op == isa.OpDiv || in.Op == isa.OpMod) && kb.ok && kb.v == 0
				if ka.ok && kb.ok && !trapDiv {
					v, err := alu(in.Op, ka.v, kb.v)
					if err == nil {
						emitConst(in.Dst, v)
						break
					}
				}
				p.class, p.imm = immForm(in.Op, cls, in.A, in.B, ka, kb)
				if p.class >= uAddI && p.class <= uCmpGEI {
					// Immediate forms are unary on a: pick the register
					// operand (commuted classes read B).
					if kb.ok && p.class != uRSubI {
						p.a = in.A
					} else {
						p.a = in.B
					}
					// Fold add-chains through the affine map so later
					// loads/stores absorb the whole displacement.
					if p.class == uAddI {
						root, off := resolve(p.a)
						p.a, p.imm = root, p.imm+off
					}
					if p.class == uRSubI {
						root, off := resolve(p.a)
						p.a, p.imm = root, p.imm-off
					}
				}
				setWritten(in.Dst)
				if p.class == uAddI && p.a != in.Dst {
					af[in.Dst] = affineVal{root: p.a, off: p.imm, ok: true}
				}
				out = append(out, p)
			}
		}
		protos[bi] = out
	}

	// --- Dead-op elision -------------------------------------------------

	readCount := make([]int, k.NumRegs)
	for bi := range protos {
		for i := range protos[bi] {
			protos[bi][i].protoReads(func(r isa.Reg) { readCount[r]++ })
		}
		if k.Blocks[bi].Term.Kind == isa.TermBranch {
			readCount[k.Blocks[bi].Term.Cond]++
		}
	}
	elide := func() {
		for changed := true; changed; {
			changed = false
			for bi := range protos {
				for i := range protos[bi] {
					p := &protos[bi][i]
					if p.elided || !p.elidable() {
						continue
					}
					if p.class == uNop || readCount[p.dst] == 0 {
						p.elided = true
						changed = true
						p.protoReads(func(r isa.Reg) { readCount[r]-- })
					}
				}
			}
		}
	}
	elide()

	// --- Peephole fusion -------------------------------------------------
	//
	// Collapse single-use producer→consumer chains between consecutive
	// retained ops into one fused dispatch. The producer must be trap-free
	// and its destination read exactly once — by the consumer — so dropping
	// the intermediate register write is unobservable (registers are not
	// externally visible; memory, hooks, stats, and errors are, and all are
	// preserved: the consumer keeps its own ci for error attribution, and
	// the producer's instruction count flows into the consumer's icount via
	// the elision accounting).
	fuseBlocks(protos, readCount)
	elide()

	// --- Register renumbering -------------------------------------------

	slotOf := make([]int32, k.NumRegs)
	for i := range slotOf {
		slotOf[i] = -1
	}
	nSlots := int32(0)
	mark := func(r isa.Reg) {
		if slotOf[r] < 0 {
			slotOf[r] = nSlots
			nSlots++
		}
	}
	for bi := range protos {
		for i := range protos[bi] {
			p := &protos[bi][i]
			if p.elided {
				continue
			}
			p.protoReads(mark)
			if p.writesDst() {
				mark(p.dst)
			}
		}
		if k.Blocks[bi].Term.Kind == isa.TermBranch {
			mark(k.Blocks[bi].Term.Cond)
		}
	}
	e.numSlots = int(nSlots)

	// --- Initial-clear analysis ------------------------------------------
	//
	// A slot must be zeroed at warp start only if some read of it can
	// execute before any write. A read in block bR is covered by a write in
	// block bW when bW strictly dominates bR AND every divergent-branch
	// region containing bW also contains bR: leaving a region restores a
	// wider mask, so a write under the narrower divergent mask could leave
	// stale lanes that a post-reconvergence read would observe. Within one
	// block the mask is constant, so any earlier write covers. Shfl source
	// registers are read cross-lane (including retired lanes) and are never
	// provably initialized.
	e.clearOffs = computeClearOffs(k, e.graph, dom, protos, slotOf, int(nSlots))

	// --- Final emission: compaction, icount, fusion ---------------------

	e.progs = make([]blockProg, nb)
	for bi, b := range k.Blocks {
		bp := &e.progs[bi]
		bp.term = b.Term
		bp.ipdom = -1
		if b.Term.Kind == isa.TermBranch {
			bp.ipdom = e.graph.IPostDom(bi)
			bp.condOff = slotOf[b.Term.Cond] * WarpWidth
		}
		pending := int32(0)
		var lastOrigDst isa.Reg
		lastIsCmp := false
		for i := range protos[bi] {
			p := &protos[bi][i]
			if p.elided {
				pending++
				continue
			}
			u := uop{
				class: p.class, lvec: p.lvec, space: p.space,
				imm: p.imm, imm2: p.imm2, memIdx: p.memIdx, ci: p.ci,
			}
			u.icount = pending + 1
			if p.class == uBarrier {
				u.icount = pending // barriers are not counted as instructions
			}
			pending = 0
			off := func(r isa.Reg) int32 {
				if s := slotOf[r]; s >= 0 {
					return s * WarpWidth
				}
				return 0
			}
			if p.writesDst() {
				u.dst = off(p.dst)
				u.writes = true
			}
			switch p.class {
			case uSpecUni:
				u.a = p.slot
			case uExtBI, uExtLoad:
				u.a, u.b = off(p.a), p.slot // b is the shift count
			case uBad:
				// never executes registers; keep ci only
			default:
				u.a, u.b, u.c = off(p.a), off(p.b), off(p.c)
			}
			bp.ops = append(bp.ops, u)
			lastOrigDst = p.dst
			lastIsCmp = (p.class >= uCmpEQ && p.class <= uCmpGE) ||
				(p.class >= uCmpEQI && p.class <= uCmpGEI)
		}
		bp.tailCount = pending
		// Fuse a trailing comparison into the branch terminator: when the
		// compare's destination is the branch condition, the compare's lane
		// loop records the taken mask directly and the terminator skips its
		// pass over the condition register.
		if len(bp.ops) > 0 && b.Term.Kind == isa.TermBranch &&
			lastIsCmp && lastOrigDst == b.Term.Cond {
			bp.fused = true
		}
	}
}

// fuseBlocks runs the peephole pass over every block: for each pair of
// consecutive retained ops (p1, p2) where p2 consumes p1's destination as
// its only use, rewrite p2 into a fused class and elide p1. Matching
// re-examines the fused op, so shr→and→load chains collapse fully
// (uShrI+uAndI → uExtBI, uExtBI+uLoad → uExtLoad) and xor/add reduction
// trees halve (uXor+uXor → uXor3).
func fuseBlocks(protos [][]protoOp, readCount []int) {
	var ret []int
	for bi := range protos {
		ops := protos[bi]
		ret = ret[:0]
		for i := range ops {
			if !ops[i].elided {
				ret = append(ret, i)
			}
		}
		for j := 0; j+1 < len(ret); {
			p1 := &ops[ret[j]]
			p2 := &ops[ret[j+1]]
			if readCount[p1.dst] != 1 || !fusePair(p1, p2) {
				j++
				continue
			}
			// p1 folds into p2: its operand reads move into p2 (already
			// rewritten by fusePair), its destination is no longer read.
			p1.elided = true
			readCount[p1.dst]--
			ret = append(ret[:j], ret[j+1:]...)
			if j > 0 {
				j-- // the fused op may now chain with its predecessor
			}
		}
	}
}

// fusePair tries to rewrite p2 to absorb p1 (whose destination is read
// exactly once, by p2 if the operand positions match). Reports whether
// the rewrite happened.
func fusePair(p1, p2 *protoOp) bool {
	d := p1.dst
	switch {
	case p1.class == uShrI && p2.class == uAndI && p2.a == d:
		p2.class = uExtBI
		p2.a = p1.a
		p2.slot = int32(p1.imm)
		p2.imm2 = p2.imm
		p2.imm = 0
		return true
	case p1.class == uShrI && p2.class == uLoad && p2.a == d:
		p2.class = uExtLoad
		p2.a = p1.a
		p2.slot = int32(p1.imm)
		p2.imm2 = -1
		return true
	case p1.class == uAndI && p2.class == uLoad && p2.a == d:
		p2.class = uExtLoad
		p2.a = p1.a
		p2.slot = 0
		p2.imm2 = p1.imm
		return true
	case p1.class == uExtBI && p2.class == uLoad && p2.a == d:
		p2.class = uExtLoad
		p2.a = p1.a
		p2.slot = p1.slot
		p2.imm2 = p1.imm2
		return true
	case p1.class == uXor && p2.class == uXor && (p2.a == d) != (p2.b == d):
		other := p2.b
		if p2.b == d {
			other = p2.a
		}
		p2.class = uXor3
		p2.a, p2.b, p2.c = p1.a, p1.b, other
		return true
	case p1.class == uAdd && p2.class == uAdd && (p2.a == d) != (p2.b == d):
		other := p2.b
		if p2.b == d {
			other = p2.a
		}
		p2.class = uAdd3
		p2.a, p2.b, p2.c = p1.a, p1.b, other
		return true
	}
	return false
}

// computeClearOffs returns the register-file offsets (slot*WarpWidth) that
// NewBlockRun must zero before execution: the slots with at least one read
// that is not provably preceded by a write of the same (or wider) active
// mask on every path. See the call site in lower for the soundness rule.
func computeClearOffs(k *isa.Kernel, g *cfg.Graph, dom *domSets,
	protos [][]protoOp, slotOf []int32, nSlots int) []int32 {
	nb := len(k.Blocks)

	// Divergent-branch regions: region[b] carries one bit per branch whose
	// body (blocks strictly between the branch and its reconvergence point)
	// contains b.
	nBr := 0
	for _, b := range k.Blocks {
		if b.Term.Kind == isa.TermBranch {
			nBr++
		}
	}
	words := (nBr + 63) / 64
	if words == 0 {
		words = 1
	}
	region := make([]uint64, nb*words)
	seen := make([]bool, nb)
	var stack []int
	id := 0
	for bi, b := range k.Blocks {
		if b.Term.Kind != isa.TermBranch {
			continue
		}
		jp := g.IPostDom(bi)
		for i := range seen {
			seen[i] = false
		}
		stack = stack[:0]
		push := func(s int) {
			if s >= 0 && s < nb && s != jp && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
		for _, s := range g.Succs(bi) {
			push(s)
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			region[x*words+id/64] |= 1 << (id % 64)
			for _, s := range g.Succs(x) {
				push(s)
			}
		}
		id++
	}

	covered := func(bW, bR int) bool {
		if bW == bR || !dom.dominates(bW, bR) {
			return false
		}
		for w := 0; w < words; w++ {
			if region[bW*words+w]&^region[bR*words+w] != 0 {
				return false
			}
		}
		return true
	}

	needInit := make([]bool, nSlots)
	type regRead struct {
		r isa.Reg
		b int
	}
	var crossReads []regRead
	writeBlocksOf := make([][]int, k.NumRegs)
	written := make([]int, k.NumRegs) // bi+1 when written earlier in block bi
	for bi := range protos {
		read := func(r isa.Reg) {
			if written[r] != bi+1 {
				crossReads = append(crossReads, regRead{r, bi})
			}
		}
		for i := range protos[bi] {
			p := &protos[bi][i]
			if p.elided {
				continue
			}
			if p.class == uShfl {
				// Cross-lane source: reads all lanes, masked or not.
				if s := slotOf[p.a]; s >= 0 {
					needInit[s] = true
				}
				read(p.b)
			} else {
				p.protoReads(read)
			}
			if p.writesDst() {
				if wl := writeBlocksOf[p.dst]; len(wl) == 0 || wl[len(wl)-1] != bi {
					writeBlocksOf[p.dst] = append(wl, bi)
				}
				written[p.dst] = bi + 1
			}
		}
		if k.Blocks[bi].Term.Kind == isa.TermBranch {
			read(k.Blocks[bi].Term.Cond)
		}
	}
	for _, cr := range crossReads {
		s := slotOf[cr.r]
		if s < 0 || needInit[s] {
			continue
		}
		ok := false
		for _, bW := range writeBlocksOf[cr.r] {
			if covered(bW, cr.b) {
				ok = true
				break
			}
		}
		if !ok {
			needInit[s] = true
		}
	}

	var offs []int32
	for s := 0; s < nSlots; s++ {
		if needInit[s] {
			offs = append(offs, int32(s)*WarpWidth)
		}
	}
	return offs
}

// writesReg reports whether the opcode writes its Dst register.
func writesReg(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpBarrier, isa.OpStore:
		return false
	}
	return true
}

// immForm picks the immediate-form class for an ALU/compare op with one
// known operand, or returns the register-form class when neither operand
// (or only an unfoldable one) is known. The returned imm is the folded
// operand, pre-adjusted for classes that absorb it (uAddI for a-imm
// subtraction, pre-masked shift counts).
func immForm(op isa.Op, regClass uopClass, _, _ isa.Reg, ka, kb knownVal) (uopClass, int64) {
	if kb.ok {
		switch op {
		case isa.OpAdd:
			return uAddI, kb.v
		case isa.OpSub:
			return uAddI, -kb.v // two's complement: a - c == a + (-c), MinInt64 included
		case isa.OpMul:
			return uMulI, kb.v
		case isa.OpDiv:
			return uDivI, kb.v
		case isa.OpMod:
			return uModI, kb.v
		case isa.OpAnd:
			return uAndI, kb.v
		case isa.OpOr:
			return uOrI, kb.v
		case isa.OpXor:
			return uXorI, kb.v
		case isa.OpShl:
			return uShlI, int64(uint64(kb.v) & 63)
		case isa.OpShr:
			return uShrI, int64(uint64(kb.v) & 63)
		case isa.OpSar:
			return uSarI, int64(uint64(kb.v) & 63)
		case isa.OpMin:
			return uMinI, kb.v
		case isa.OpMax:
			return uMaxI, kb.v
		case isa.OpCmpEQ:
			return uCmpEQI, kb.v
		case isa.OpCmpNE:
			return uCmpNEI, kb.v
		case isa.OpCmpLT:
			return uCmpLTI, kb.v
		case isa.OpCmpLE:
			return uCmpLEI, kb.v
		case isa.OpCmpGT:
			return uCmpGTI, kb.v
		case isa.OpCmpGE:
			return uCmpGEI, kb.v
		}
	}
	if ka.ok {
		switch op {
		case isa.OpAdd:
			return uAddI, ka.v
		case isa.OpSub:
			return uRSubI, ka.v // imm - b
		case isa.OpMul:
			return uMulI, ka.v
		case isa.OpAnd:
			return uAndI, ka.v
		case isa.OpOr:
			return uOrI, ka.v
		case isa.OpXor:
			return uXorI, ka.v
		case isa.OpMin:
			return uMinI, ka.v
		case isa.OpMax:
			return uMaxI, ka.v
		// Comparisons commute by flipping the relation: imm < b == b > imm.
		case isa.OpCmpEQ:
			return uCmpEQI, ka.v
		case isa.OpCmpNE:
			return uCmpNEI, ka.v
		case isa.OpCmpLT:
			return uCmpGTI, ka.v
		case isa.OpCmpLE:
			return uCmpGEI, ka.v
		case isa.OpCmpGT:
			return uCmpLTI, ka.v
		case isa.OpCmpGE:
			return uCmpLEI, ka.v
		}
	}
	return regClass, 0
}

// domSets is a bitset-per-block dominator matrix.
type domSets struct {
	words int
	bits  []uint64
}

func (d *domSets) dominates(a, b int) bool {
	return d.bits[b*d.words+a/64]&(1<<uint(a%64)) != 0
}

// computeDominators runs the classic iterative forward-dominator data
// flow: dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(preds). Blocks
// unreachable from the entry keep the full set, which is harmless: the
// seeding below only consults blocks that execute.
func computeDominators(nb int, g interface{ Preds(int) []int }) *domSets {
	words := (nb + 63) / 64
	d := &domSets{words: words, bits: make([]uint64, nb*words)}
	row := func(b int) []uint64 { return d.bits[b*words : (b+1)*words] }
	for b := 1; b < nb; b++ {
		for w := range row(b) {
			row(b)[w] = ^uint64(0)
		}
	}
	row(0)[0] = 1
	tmp := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for b := 1; b < nb; b++ {
			for w := range tmp {
				tmp[w] = ^uint64(0)
			}
			for _, p := range g.Preds(b) {
				pr := row(p)
				for w := range tmp {
					tmp[w] &= pr[w]
				}
			}
			tmp[b/64] |= 1 << uint(b%64)
			rb := row(b)
			for w := range tmp {
				if rb[w] != tmp[w] {
					rb[w] = tmp[w]
					changed = true
				}
			}
		}
	}
	return d
}

// laneVecFor maps a special-register selector to its per-lane vector, or
// reports false for warp-uniform selectors.
func laneVecFor(sel int64) (uint8, bool) {
	switch sel {
	case isa.SpecTidX:
		return lvTidX, true
	case isa.SpecTidY:
		return lvTidY, true
	case isa.SpecTidZ:
		return lvTidZ, true
	case isa.SpecLaneID:
		return lvLane, true
	case isa.SpecGlobalTid:
		return lvGID, true
	}
	return 0, false
}

// uniformSpecial resolves a warp-uniform special-register selector. An
// error is attached to the slot and surfaces only if the instruction
// actually executes, preserving the lazy semantics of per-lane reads.
func uniformSpecial(sel int64, wp *WarpParams) (int64, error) {
	switch sel {
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
	case isa.SpecWarpID:
		return int64(wp.WarpID), nil
	}
	if sel >= isa.SpecParamBase {
		i := int(sel - isa.SpecParamBase)
		if i >= len(wp.Params) {
			return 0, errParamRange(i, len(wp.Params))
		}
		return wp.Params[i], nil
	}
	return 0, errUnknownSpecial(sel)
}
