// Package shmem provides the microarchitectural cost-channel probe pair:
// a kernel whose shared-memory bank-conflict degree depends on a secret
// stride, and its padded rewrite whose cost profile is secret-independent.
//
// The leaky kernel looks up sh[(lane*v) & 127] where v = 1<<k encodes the
// secret k ∈ 0..5. The stride v determines how many lanes collide in the
// same 32-word-interleaved bank: degree 1 for k=0 up to a 4-way conflict
// for k≥2 — a timing channel that leaks k through serialization even
// though every secret produces the same instruction sequence. The padded
// variant reads sh[lane + 32*v] from a widened table, so every lane hits
// a distinct bank for every secret (degree always 1), and the 1<<k
// encoding keeps the Hamming weight of every secret-derived register
// constant — the cost channel sees nothing, while the address channel
// still sees the secret-dependent indices (detected but mitigatable).
package shmem

import (
	"math/rand"

	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/simt"
)

// secretStates is how many distinct secrets the probe encodes (k ∈ 0..5,
// i.e. strides 1, 2, 4, 8, 16, 32).
const secretStates = 6

// buildLeaky emits, for one warp (32 threads):
//
//	sh[lane] = lane          // conflict-free fill
//	barrier
//	r = sh[(lane*v) & 127]   // stride-v gather: bank degree 1,2,4,4,4,4 for k=0..5
//	out[lane] = r
func buildLeaky() *isa.Kernel {
	b := kbuild.New("shmem_stride_lookup", 2) // params: v (secret stride), out
	b.SetShared(128)
	lane := b.Tid()
	v := b.Param(0)
	out := b.Param(1)
	b.Label("fill")
	b.Store(isa.SpaceShared, lane, 0, lane)
	b.Comment("conflict-free fill (secret-independent)")
	b.Barrier()
	b.Label("lookup")
	addr := b.And(b.Mul(lane, v), b.ConstR(127))
	r := b.Load(isa.SpaceShared, addr, 0)
	b.Comment("stride-v gather (bank degree follows the secret)")
	b.Store(isa.SpaceGlobal, b.Add(out, lane), 0, r)
	b.Ret()
	return b.MustBuild()
}

// buildPadded emits the conflict-free rewrite: the table is widened to one
// 32-word row per secret, each lane reads its own bank, and the value
// written is a constant so the power proxy is flat too. lane + 32*v never
// carries (32*v is a single bit ≥ 2^5, lane < 2^5), so the Hamming weight
// of the address register is HW(lane)+1 for every secret.
func buildPadded() *isa.Kernel {
	b := kbuild.New("shmem_padded_lookup", 2) // params: v (secret stride), out
	// One 32-word row per stride value, rows at 32*v.
	b.SetShared(32 + 32*32)
	lane := b.Tid()
	v := b.Param(0)
	out := b.Param(1)
	row := b.Mul(v, b.ConstR(32))
	addr := b.Add(lane, row)
	b.Label("fill")
	b.Store(isa.SpaceShared, addr, 0, b.ConstR(1))
	b.Comment("per-row fill, one lane per bank (degree 1 for every secret)")
	b.Barrier()
	b.Label("lookup")
	r := b.Load(isa.SpaceShared, addr, 0)
	b.Comment("padded gather: constant value, constant bank degree")
	b.Store(isa.SpaceGlobal, b.Add(out, lane), 0, r)
	b.Ret()
	return b.MustBuild()
}

// Program runs the probe kernel on one warp with a secret-derived stride.
type Program struct {
	name   string
	kernel *isa.Kernel
}

var _ cuda.Program = (*Program)(nil)

// NewLeaky returns the bank-conflict-leaky probe.
func NewLeaky() *Program {
	return &Program{name: "workloads/shmem-leaky", kernel: buildLeaky()}
}

// NewPadded returns the conflict-free rewrite.
func NewPadded() *Program {
	return &Program{name: "workloads/shmem-padded", kernel: buildPadded()}
}

// Name implements cuda.Program.
func (p *Program) Name() string { return p.name }

// Kernel exposes the device kernel for the static baseline.
func (p *Program) Kernel() *isa.Kernel { return p.kernel }

// Secret maps an input to the stride v = 1<<k it drives. The power-of-two
// encoding keeps HW(v) = 1 for every secret, so only the microarchitectural
// serialization — not operand weight — separates the leaky kernel's costs.
func Secret(input []byte) int64 {
	k := 0
	if len(input) > 0 {
		k = int(input[0]) % secretStates
	}
	return 1 << k
}

// Run implements cuda.Program.
func (p *Program) Run(ctx *cuda.Context, input []byte) error {
	v := Secret(input)
	return ctx.Call("shmem_main", func() error {
		outPtr, err := ctx.Malloc(simt.WarpWidth)
		if err != nil {
			return err
		}
		if err := ctx.Launch(p.kernel, gpu.D1(1), gpu.D1(simt.WarpWidth),
			v, int64(outPtr)); err != nil {
			return err
		}
		_, err = ctx.MemcpyDtoH(outPtr, simt.WarpWidth)
		return err
	})
}

// Gen draws a random one-byte secret.
func Gen() cuda.InputGen {
	return func(r *rand.Rand) []byte {
		return []byte{byte(r.Intn(secretStates))}
	}
}
