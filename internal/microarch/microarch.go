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
	"sort"

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
// differential power analysis keys on.
func PowerProxy(vals *[simt.WarpWidth]int64, mask uint32) int64 {
	var s int64
	for m := mask; m != 0; m &= m - 1 {
		s += int64(bits.OnesCount64(uint64(vals[bits.TrailingZeros32(m)])))
	}
	return s
}

// siteKey identifies one cost-site accumulator.
type siteKey struct {
	metric trace.CostMetric
	block  int
	instr  int
}

// cell is one site's running aggregate.
type cell struct {
	events int64
	total  int64
}

// Collector aggregates cost observations per (metric, block, instruction)
// site across the warps of one kernel invocation. Aggregation only adds,
// so any number of warps may record into one Collector in any order, but
// not concurrently: the tracer gives each block-executor slot its own and
// merges them at launch end.
type Collector struct {
	agg map[siteKey]cell
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{agg: make(map[siteKey]cell)}
}

// add folds one observation into a site.
func (c *Collector) add(k siteKey, cost int64) {
	e := c.agg[k]
	e.events++
	e.total += cost
	c.agg[k] = e
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
		c.add(siteKey{trace.CostBank, block, memIdx}, int64(BankConflictDegree(addrs)))
	case isa.SpaceGlobal:
		c.add(siteKey{trace.CostCoalesce, block, memIdx}, int64(Transactions(addrs)))
	}
}

// RecordRegWrite folds one register write into the power-proxy metric.
// instr is the instruction's code index within the block.
func (c *Collector) RecordRegWrite(block, instr int, vals *[simt.WarpWidth]int64, mask uint32) {
	if mask == 0 {
		return
	}
	c.add(siteKey{trace.CostPower, block, instr}, PowerProxy(vals, mask))
}

// Empty reports whether the collector holds no observations.
func (c *Collector) Empty() bool { return len(c.agg) == 0 }

// Reset empties the collector for reuse, keeping its map capacity.
func (c *Collector) Reset() { clear(c.agg) }

// MergeInto folds the collector's aggregates into dst, keyed the same
// way. The tracer uses it to combine the collectors of a parallel
// launch's block-executor slots into one per-invocation aggregate.
func (c *Collector) MergeInto(dst *Collector) {
	for k, e := range c.agg {
		d := dst.agg[k]
		d.events += e.events
		d.total += e.total
		dst.agg[k] = d
	}
}

// Sites renders the aggregate as canonical trace cost sites, sorted by
// (Metric, Block, Instr).
func (c *Collector) Sites() []trace.CostSite {
	if len(c.agg) == 0 {
		return nil
	}
	out := make([]trace.CostSite, 0, len(c.agg))
	for k, e := range c.agg {
		out = append(out, trace.CostSite{
			Block:  k.block,
			Instr:  k.instr,
			Metric: k.metric,
			Events: e.events,
			Total:  e.total,
		})
	}
	sort.Slice(out, func(i, j int) bool { return costLess(out[i], out[j]) })
	return out
}

// costLess mirrors trace's canonical cost-site order.
func costLess(a, b trace.CostSite) bool {
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	return a.Instr < b.Instr
}
