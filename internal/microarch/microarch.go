// Package microarch models the per-instruction microarchitectural cost
// observables of the cost channel: shared-memory bank-conflict
// serialization (the 32-bank, broadcast-aware model behind shared-memory
// timing attacks), global-memory coalescing transaction counts (absorbed
// from the former internal/coalesce package — Jiang et al.'s HPCA'16 AES
// key-recovery observable), and a Hamming-weight power proxy over written
// register values (the simulation-driven leakage-hunting signal of
// aLEAKator/ROSITA). A-DCFG differential detection is structurally blind
// to these: a kernel can touch identical addresses in identical order and
// still take secret-dependent time (or draw secret-dependent power)
// through access *shape*. The Collector aggregates all three per
// (block, instruction) site into trace.CostSite records that ride the
// canonical trace into the statistical evidence engine.
package microarch

import (
	"math/bits"

	"owl/internal/isa"
	"owl/internal/simt"
	"owl/internal/trace"
)

// NumBanks is the number of shared-memory banks: successive 8-byte words
// map to successive banks, wrapping every 32 words.
const NumBanks = 32

// WordsPerLine is the global-memory coalescing granularity: 128-byte
// lines of 8-byte words.
const WordsPerLine = 16

// Transactions returns the number of 128-byte memory transactions needed
// to service one warp access with the given lane addresses — the distinct
// lines touched. A fully coalesced stride-1 access costs 1; a worst-case
// scatter costs one transaction per lane.
func Transactions(addrs []int64) int {
	n := 0
	for i, a := range addrs {
		line := a / WordsPerLine
		dup := false
		for _, p := range addrs[:i] {
			if p/WordsPerLine == line {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	return n
}

// BankConflictDegree returns the serialization degree of one warp's
// shared-memory access: the maximum, over the 32 banks, of the number of
// *distinct* words the access touches in that bank. Lanes reading the
// same word broadcast in a single cycle (hardware multicast), so
// duplicates never conflict: a uniform access has degree 1, a stride-1
// access degree 1, a stride-2 access degree 2, and a same-bank scatter of
// k distinct words degree k (worst case 32). An empty access has degree 0.
func BankConflictDegree(addrs []int64) int {
	var perBank [NumBanks]int8
	deg := 0
	for i, a := range addrs {
		dup := false
		for _, p := range addrs[:i] {
			if p == a {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		b := int(((a % NumBanks) + NumBanks) % NumBanks)
		perBank[b]++
		if d := int(perBank[b]); d > deg {
			deg = d
		}
	}
	return deg
}

// PowerProxy returns the Hamming-weight power proxy of one register
// write: the total population count of the values written across the
// active lanes. Under a Hamming-weight power model this is proportional
// to the instruction's dynamic switching energy, the observable
// differential power analysis keys on. A full-warp write sums every lane
// in one straight loop, in about half the bit-walk's time; such writes
// are every register write of aes128, rsa and the shmem kernels and 90%
// of the suite's. A partial mask (1 to 16 lanes on average in the suite)
// walks its set bits, which a per-lane test over all 32 lanes would slow
// by up to 9x.
func PowerProxy(vals *[simt.WarpWidth]int64, mask uint32) int64 {
	var s int64
	if mask == ^uint32(0) {
		for _, v := range vals {
			s += int64(bits.OnesCount64(uint64(v)))
		}
		return s
	}
	for m := mask; m != 0; m &= m - 1 {
		s += int64(bits.OnesCount64(uint64(vals[bits.TrailingZeros32(m)])))
	}
	return s
}

// cell is one site's running aggregate.
type cell struct {
	events int64
	total  int64
}

// add folds one observation into a site.
func (e *cell) add(cost int64) {
	e.events++
	e.total += cost
}

// Collector aggregates cost observations per (metric, block, instruction)
// site across the warps of one kernel invocation. Its sites are laid out
// densely for one kernel: the bank and coalesce metrics hold one cell per
// memory instruction and the power metric one per code instruction, each
// in (block, instruction) order, so recording an observation is one
// indexed add. Aggregation only adds, so any number of warps may record
// into one Collector in any order, but not concurrently: a launch has its
// tracer's collector of the kernel to itself, and thread blocks run one at
// a time.
type Collector struct {
	// memOff[b] is the first memory site of block b and codeOff[b] its
	// first code site; the last entry of each is the kernel's total.
	memOff, codeOff []int
	// One cell per site of each metric, indexed by offset plus
	// instruction index.
	bank, coalesce, power []cell
}

// NewCollector returns an empty collector laid out for the kernel's
// sites. Memory instructions are numbered within each block in program
// order, matching the interpreter's memIdx and the A-DCFG's addressing.
func NewCollector(k *isa.Kernel) *Collector {
	n := len(k.Blocks)
	off := make([]int, 2*(n+1))
	memOff, codeOff := off[:n+1], off[n+1:]
	for b, blk := range k.Blocks {
		mem := 0
		for _, in := range blk.Code {
			if in.IsMem() {
				mem++
			}
		}
		memOff[b+1] = memOff[b] + mem
		codeOff[b+1] = codeOff[b] + len(blk.Code)
	}
	nMem := memOff[n]
	cells := make([]cell, 2*nMem+codeOff[n])
	return &Collector{
		memOff:   memOff,
		codeOff:  codeOff,
		bank:     cells[:nMem:nMem],
		coalesce: cells[nMem : 2*nMem : 2*nMem],
		power:    cells[2*nMem:],
	}
}

// Reset empties the collector for the next invocation of its kernel.
func (c *Collector) Reset() {
	clear(c.bank)
	clear(c.coalesce)
	clear(c.power)
}

// RecordMem folds one warp memory access in: shared-space accesses feed
// the bank-conflict metric, global-space accesses the coalescing metric,
// other spaces nothing. memIdx is the instruction's index among the
// block's memory instructions, matching the A-DCFG's addressing.
func (c *Collector) RecordMem(block, memIdx int, space isa.Space, addrs []int64) {
	if len(addrs) == 0 {
		return
	}
	switch space {
	case isa.SpaceShared:
		c.bank[c.memOff[block]+memIdx].add(int64(BankConflictDegree(addrs)))
	case isa.SpaceGlobal:
		c.coalesce[c.memOff[block]+memIdx].add(int64(Transactions(addrs)))
	}
}

// RecordRegWrite folds one register write into the power-proxy metric.
// instr is the instruction's code index within the block.
func (c *Collector) RecordRegWrite(block, instr int, vals *[simt.WarpWidth]int64, mask uint32) {
	if mask == 0 {
		return
	}
	c.power[c.codeOff[block]+instr].add(PowerProxy(vals, mask))
}

// Sites renders the aggregate as canonical trace cost sites: every site
// observed at least once, sorted by (Metric, Block, Instr). The cells
// are walked in exactly that order, so the result needs no sort; it is
// nil when nothing was observed.
func (c *Collector) Sites() []trace.CostSite {
	n := hits(c.bank) + hits(c.coalesce) + hits(c.power)
	if n == 0 {
		return nil
	}
	out := make([]trace.CostSite, 0, n)
	out = appendSites(out, trace.CostBank, c.memOff, c.bank)
	out = appendSites(out, trace.CostCoalesce, c.memOff, c.coalesce)
	return appendSites(out, trace.CostPower, c.codeOff, c.power)
}

// hits counts the observed cells.
func hits(cells []cell) int {
	n := 0
	for _, e := range cells {
		if e.events > 0 {
			n++
		}
	}
	return n
}

// appendSites appends the observed cells of one metric in (block,
// instruction) order; off holds the metric's per-block offsets.
func appendSites(out []trace.CostSite, m trace.CostMetric, off []int, cells []cell) []trace.CostSite {
	for b := 0; b+1 < len(off); b++ {
		for i, e := range cells[off[b]:off[b+1]] {
			if e.events > 0 {
				out = append(out, trace.CostSite{Block: b, Instr: i, Metric: m, Events: e.events, Total: e.total})
			}
		}
	}
	return out
}
