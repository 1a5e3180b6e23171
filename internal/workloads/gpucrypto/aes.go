package gpucrypto

import (
	"math/rand"
	"sync"

	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
)

// Constant-memory layout of the AES kernel.
const (
	constTe0  = 0
	constTe1  = 256
	constTe2  = 512
	constTe3  = 768
	constSbox = 1024
	constRK   = 1280 // 44 round-key words
)

// AESOption configures the AES program.
type AESOption func(*AES)

// WithBlocks sets the number of 16-byte blocks (= device threads).
func WithBlocks(n int) AESOption {
	return func(a *AES) { a.blocks = n }
}

// WithScatterGather switches the kernel to a constant-time gather: every
// table lookup scans all 256 entries and selects the wanted one, the
// countermeasure the paper cites for GPUs (§IX). The data-flow leak
// disappears at a large throughput cost.
func WithScatterGather() AESOption {
	return func(a *AES) { a.scatterGather = true }
}

// AES is the Libgpucrypto AES-128 encryption program. The secret input is
// the 16-byte key, shared by every thread; plaintext blocks are public and
// derived from the block index (as in the paper, where the key is constant
// across threads, §VIII-B).
type AES struct {
	blocks        int
	scatterGather bool
	kernel        *isa.Kernel

	mu             sync.Mutex
	lastCiphertext []int64
	pt             []int64 // memoized public plaintext; read-only once built
	keyCache       [16]byte
	rkCache        [44]uint32
	keyValid       bool
}

// LastCiphertext returns the device output of the most recent Run, for
// validation against the host reference. Safe under concurrent Runs.
func (a *AES) LastCiphertext() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastCiphertext
}

var _ cuda.Program = (*AES)(nil)

// NewAES builds the AES program.
func NewAES(opts ...AESOption) *AES {
	a := &AES{blocks: 64}
	for _, o := range opts {
		o(a)
	}
	a.kernel = buildAESKernel(a.scatterGather)
	return a
}

// Name implements cuda.Program.
func (a *AES) Name() string {
	if a.scatterGather {
		return "libgpucrypto/aes128-sg"
	}
	return "libgpucrypto/aes128"
}

// Kernel exposes the device kernel (tests, static baseline).
func (a *AES) Kernel() *isa.Kernel { return a.kernel }

// Run implements cuda.Program: expand the key, upload tables and round
// keys, encrypt `blocks` plaintext blocks. The key-independent tables and
// the round keys are written as two uploads, so no run builds a whole
// constant image: the device copies both into its own constant arena.
func (a *AES) Run(ctx *cuda.Context, input []byte) error {
	rk := a.roundKeys(normalizeKey(input))
	return ctx.Call("aes_encrypt", func() error {
		if err := ctx.SetConstant(0, aesConstPrefix()); err != nil {
			return err
		}
		var rkWords [44]int64
		for i, w := range rk {
			rkWords[i] = int64(w)
		}
		if err := ctx.SetConstant(constRK, rkWords[:]); err != nil {
			return err
		}
		pt := a.plaintext()
		ptPtr, err := ctx.Malloc(int64(len(pt)))
		if err != nil {
			return err
		}
		ctPtr, err := ctx.Malloc(int64(len(pt)))
		if err != nil {
			return err
		}
		if err := ctx.MemcpyHtoD(ptPtr, pt); err != nil {
			return err
		}
		threads := 64
		blocks := (a.blocks + threads - 1) / threads
		if err := ctx.Launch(a.kernel, gpu.D1(blocks), gpu.D1(threads),
			int64(ptPtr), int64(ctPtr), int64(a.blocks)); err != nil {
			return err
		}
		out, err := ctx.MemcpyDtoH(ctPtr, int64(len(pt)))
		if err != nil {
			return err
		}
		a.mu.Lock()
		a.lastCiphertext = out
		a.mu.Unlock()
		return nil
	})
}

// EncryptOnHost returns the ciphertext the device is expected to produce,
// for validation.
func (a *AES) EncryptOnHost(input []byte) []uint32 {
	rk := expandKey128(normalizeKey(input))
	out := make([]uint32, a.blocks*4)
	for blk := 0; blk < a.blocks; blk++ {
		var ptw [4]uint32
		for i := 0; i < 4; i++ {
			ptw[i] = plaintextWord(blk*4 + i)
		}
		ct := encryptBlockRef(rk, ptw)
		copy(out[blk*4:], ct[:])
	}
	return out
}

func normalizeKey(input []byte) []byte {
	key := make([]byte, 16)
	copy(key, input)
	for i := len(input); i < 16 && len(input) > 0; i++ {
		key[i] = input[i%len(input)]
	}
	return key
}

// PlaintextWord derives the public plaintext deterministically. It is
// exported because the paper's attacker knows the public inputs and uses
// them to invert observed table indices (internal/attack).
func PlaintextWord(i int) uint32 { return plaintextWord(i) }

// plaintextWord derives the public plaintext deterministically.
func plaintextWord(i int) uint32 {
	x := uint32(i)*2654435761 + 0x9e3779b9
	x ^= x >> 16
	return x
}

// aesConstPrefix returns the key-independent prefix of the constant image
// — the four T tables and the S-box, everything below the round keys —
// built once per process and read-only.
var aesConstPrefix = sync.OnceValue(func() []int64 {
	buf := make([]int64, constRK)
	for i := 0; i < 256; i++ {
		buf[constTe0+i] = int64(te[0][i])
		buf[constTe1+i] = int64(te[1][i])
		buf[constTe2+i] = int64(te[2][i])
		buf[constTe3+i] = int64(te[3][i])
		buf[constSbox+i] = int64(sbox[i])
	}
	return buf
})

// roundKeys expands key, memoizing the schedule: fixed-input detection
// phases run the same key hundreds of times.
func (a *AES) roundKeys(key []byte) [44]uint32 {
	var k [16]byte
	copy(k[:], key)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.keyValid || a.keyCache != k {
		a.keyCache, a.rkCache, a.keyValid = k, expandKey128(key), true
	}
	return a.rkCache
}

// plaintext returns the public plaintext blocks, derived from block indices
// only (never from the key), built once per program.
func (a *AES) plaintext() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pt == nil {
		pt := make([]int64, a.blocks*4)
		for i := range pt {
			pt[i] = int64(plaintextWord(i))
		}
		a.pt = pt
	}
	return a.pt
}

// KeyGen draws random 16-byte keys for the leakage-analysis phase.
func KeyGen() cuda.InputGen {
	return func(r *rand.Rand) []byte {
		k := make([]byte, 16)
		r.Read(k)
		return k
	}
}

// buildAESKernel emits the device kernel. scatterGather selects the
// constant-time table access strategy.
func buildAESKernel(scatterGather bool) *isa.Kernel {
	name := "aes128_encrypt"
	if scatterGather {
		name = "aes128_encrypt_sg"
	}
	b := kbuild.New(name, 3) // pt, ct, nblocks
	tid := b.Tid()
	n := b.Param(2)
	guard := b.CmpLT(tid, n)

	// lookup reads table[idx] from constant memory; the direct form is the
	// paper's data-flow leak, the gather form is the countermeasure.
	lookup := func(tableBase int64, idx isa.Reg, note string) isa.Reg {
		if !scatterGather {
			addr := b.Add(idx, b.ConstR(tableBase))
			v := b.Load(isa.SpaceConstant, addr, 0)
			b.Comment(note)
			return v
		}
		acc := b.ConstR(0)
		b.ForConst(0, 256, func(i isa.Reg) {
			addr := b.Add(i, b.ConstR(tableBase))
			v := b.Load(isa.SpaceConstant, addr, 0)
			b.Comment(note + " (gather scan)")
			hit := b.CmpEQ(i, idx)
			picked := b.Select(hit, v, acc)
			b.Mov(acc, picked)
		})
		return acc
	}

	byteAt := func(w isa.Reg, shift int64) isa.Reg {
		sh := b.Shr(w, b.ConstR(shift))
		return b.And(sh, b.ConstR(255))
	}

	rkLoad := func(idx isa.Reg) isa.Reg {
		addr := b.Add(idx, b.ConstR(constRK))
		v := b.Load(isa.SpaceConstant, addr, 0)
		b.Comment("round key (public index)")
		return v
	}

	b.If(guard, func() {
		b.Label("aes.body")
		ptPtr := b.Param(0)
		ctPtr := b.Param(1)
		base := b.Add(ptPtr, b.Shl(tid, b.ConstR(2)))

		// Load state and xor rk[0..3].
		s := make([]isa.Reg, 4)
		for i := 0; i < 4; i++ {
			w := b.Load(isa.SpaceGlobal, base, int64(i))
			b.Comment("plaintext word (tid-indexed)")
			k := rkLoad(b.ConstR(int64(i)))
			x := b.Xor(w, k)
			s[i] = b.Reg()
			b.Mov(s[i], x)
		}

		// Nine main rounds, loop-form as the compiled binary would be
		// before the unrolling the paper had to screen for.
		r := b.Reg()
		b.Const(r, 1)
		ten := b.ConstR(10)
		b.While(func() isa.Reg { return b.CmpLT(r, ten) }, func() {
			b.Label("aes.round")
			rkBase := b.Shl(r, b.ConstR(2))
			t := make([]isa.Reg, 4)
			for i := 0; i < 4; i++ {
				v0 := lookup(constTe0, byteAt(s[i], 24), "t-table Te0 lookup (secret-indexed)")
				v1 := lookup(constTe1, byteAt(s[(i+1)%4], 16), "t-table Te1 lookup (secret-indexed)")
				v2 := lookup(constTe2, byteAt(s[(i+2)%4], 8), "t-table Te2 lookup (secret-indexed)")
				v3 := lookup(constTe3, b.And(s[(i+3)%4], b.ConstR(255)), "t-table Te3 lookup (secret-indexed)")
				k := rkLoad(b.Add(rkBase, b.ConstR(int64(i))))
				x := b.Xor(b.Xor(b.Xor(b.Xor(v0, v1), v2), v3), k)
				t[i] = x
			}
			for i := 0; i < 4; i++ {
				b.Mov(s[i], t[i])
			}
			one := b.ConstR(1)
			b.Bin(isa.OpAdd, r, r, one)
		})

		// Final round via the S-box.
		b.Label("aes.final")
		outBase := b.Add(ctPtr, b.Shl(tid, b.ConstR(2)))
		for i := 0; i < 4; i++ {
			b0 := lookup(constSbox, byteAt(s[i], 24), "s-box lookup (secret-indexed)")
			b1 := lookup(constSbox, byteAt(s[(i+1)%4], 16), "s-box lookup (secret-indexed)")
			b2 := lookup(constSbox, byteAt(s[(i+2)%4], 8), "s-box lookup (secret-indexed)")
			b3 := lookup(constSbox, b.And(s[(i+3)%4], b.ConstR(255)), "s-box lookup (secret-indexed)")
			w := b.Or(b.Or(b.Shl(b0, b.ConstR(24)), b.Shl(b1, b.ConstR(16))),
				b.Or(b.Shl(b2, b.ConstR(8)), b3))
			k := rkLoad(b.ConstR(int64(40 + i)))
			out := b.Xor(w, k)
			b.Store(isa.SpaceGlobal, outBase, int64(i), out)
			b.Comment("ciphertext word (tid-indexed)")
		}
	}, nil)
	b.Ret()
	return b.MustBuild()
}
