package simt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"owl/internal/isa"
)

// TestRandomProgramsMatchReference generates random straight-line ALU
// programs and checks the executor against an independently written Go
// evaluator, register for register.
func TestRandomProgramsMatchReference(t *testing.T) {
	const numRegs = 8

	// evalRef mirrors the ISA semantics, written independently of alu().
	evalRef := func(op isa.Op, a, b int64) int64 {
		boolTo := func(v bool) int64 {
			if v {
				return 1
			}
			return 0
		}
		switch op {
		case isa.OpAdd:
			return a + b
		case isa.OpSub:
			return a - b
		case isa.OpMul:
			return a * b
		case isa.OpAnd:
			return a & b
		case isa.OpOr:
			return a | b
		case isa.OpXor:
			return a ^ b
		case isa.OpShl:
			return a << (uint64(b) % 64)
		case isa.OpShr:
			return int64(uint64(a) >> (uint64(b) % 64))
		case isa.OpSar:
			return a >> (uint64(b) % 64)
		case isa.OpMin:
			if a < b {
				return a
			}
			return b
		case isa.OpMax:
			if a > b {
				return a
			}
			return b
		case isa.OpCmpEQ:
			return boolTo(a == b)
		case isa.OpCmpNE:
			return boolTo(a != b)
		case isa.OpCmpLT:
			return boolTo(a < b)
		case isa.OpCmpLE:
			return boolTo(a <= b)
		case isa.OpCmpGT:
			return boolTo(a > b)
		case isa.OpCmpGE:
			return boolTo(a >= b)
		}
		t.Fatalf("unexpected op %v", op)
		return 0
	}

	safeOps := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMin, isa.OpMax,
		isa.OpCmpEQ, isa.OpCmpNE, isa.OpCmpLT, isa.OpCmpLE, isa.OpCmpGT, isa.OpCmpGE,
	}

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var code []isa.Instr
		ref := make([]int64, numRegs)
		// Seed the register file with constants.
		for i := 0; i < numRegs; i++ {
			v := r.Int63n(1<<20) - (1 << 19)
			code = append(code, isa.Instr{Op: isa.OpConst, Dst: isa.Reg(i), Imm: v})
			ref[i] = v
		}
		// Random instruction stream.
		for i := 0; i < 40; i++ {
			switch r.Intn(4) {
			case 0: // mov
				dst, src := isa.Reg(r.Intn(numRegs)), isa.Reg(r.Intn(numRegs))
				code = append(code, isa.Instr{Op: isa.OpMov, Dst: dst, A: src})
				ref[dst] = ref[src]
			case 1: // not
				dst, src := isa.Reg(r.Intn(numRegs)), isa.Reg(r.Intn(numRegs))
				code = append(code, isa.Instr{Op: isa.OpNot, Dst: dst, A: src})
				if ref[src] == 0 {
					ref[dst] = 1
				} else {
					ref[dst] = 0
				}
			case 2: // select
				dst := isa.Reg(r.Intn(numRegs))
				c, x, y := isa.Reg(r.Intn(numRegs)), isa.Reg(r.Intn(numRegs)), isa.Reg(r.Intn(numRegs))
				code = append(code, isa.Instr{Op: isa.OpSelect, Dst: dst, A: c, B: x, C: y})
				if ref[c] != 0 {
					ref[dst] = ref[x]
				} else {
					ref[dst] = ref[y]
				}
			default: // binary alu
				op := safeOps[r.Intn(len(safeOps))]
				dst := isa.Reg(r.Intn(numRegs))
				a, b := isa.Reg(r.Intn(numRegs)), isa.Reg(r.Intn(numRegs))
				code = append(code, isa.Instr{Op: op, Dst: dst, A: a, B: b})
				ref[dst] = evalRef(op, ref[a], ref[b])
			}
		}
		// Spill every register to global memory.
		addrReg := isa.Reg(numRegs)
		for i := 0; i < numRegs; i++ {
			code = append(code,
				isa.Instr{Op: isa.OpConst, Dst: addrReg, Imm: int64(i)},
				isa.Instr{Op: isa.OpStore, A: addrReg, B: isa.Reg(i), Space: isa.SpaceGlobal},
			)
		}
		k := &isa.Kernel{
			Name: "randprog", NumRegs: numRegs + 1,
			Blocks: []*isa.Block{{ID: 0, Code: code, Term: isa.Terminator{Kind: isa.TermRet}}},
		}
		exec, err := NewExecutor(k)
		if err != nil {
			return false
		}
		mem := newMapMem()
		wp := fullWarp()
		wp.Lanes = wp.Lanes[:1]
		if _, err := runWarp(exec, wp, mem, nil); err != nil {
			return false
		}
		for i := 0; i < numRegs; i++ {
			if mem.global[int64(i)] != ref[i] {
				t.Logf("seed %d: reg %d = %d, reference %d", seed, i, mem.global[int64(i)], ref[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
