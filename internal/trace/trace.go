// Package trace defines the program-level execution trace of §V-A: the
// chronological sequence of kernel invocations (each carrying the A-DCFG
// reconstructed from its warps) plus the allocation records captured on the
// host. Traces hash canonically so the duplicates-removing phase (§VI) can
// class inputs by trace equality.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"owl/internal/adcfg"
	"owl/internal/gpu"
)

// Alloc is one host-observed device allocation.
type Alloc struct {
	ID    int
	Words int64
	Site  string
}

// Invocation is one kernel launch with its reconstructed A-DCFG.
type Invocation struct {
	Seq     int
	StackID string
	Kernel  string
	Grid    gpu.Dim3
	Block   gpu.Dim3
	Graph   *adcfg.Graph
	// Cost holds the invocation's microarchitectural cost sites, sorted
	// by (Metric, Block, Instr). Empty unless the run was recorded with
	// the cost channel enabled (tracer.WithCost); when present it joins
	// the canonical encoding, so cost-divergent runs class separately
	// even when their address traces agree.
	Cost []CostSite
}

// ProgramTrace is T_P: the ordered launches of one program execution.
type ProgramTrace struct {
	Program     string
	Invocations []*Invocation
	Allocs      []Alloc
}

// StackSeq returns the launch identity sequence, the unit of Myers
// alignment during evidence merging (§VII-A).
func (t *ProgramTrace) StackSeq() []string {
	out := make([]string, len(t.Invocations))
	for i, inv := range t.Invocations {
		out[i] = inv.StackID
	}
	return out
}

// Encode produces the canonical binary form of the trace.
func (t *ProgramTrace) Encode() []byte {
	var buf []byte
	put := func(v int64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putStr := func(s string) {
		put(int64(len(s)))
		buf = append(buf, s...)
	}
	putStr(t.Program)
	put(int64(len(t.Allocs)))
	for _, a := range t.Allocs {
		put(int64(a.ID))
		put(a.Words)
		putStr(a.Site)
	}
	put(int64(len(t.Invocations)))
	for _, inv := range t.Invocations {
		putStr(inv.StackID)
		put(int64(inv.Grid.Count()))
		put(int64(inv.Block.Count()))
		g := inv.Graph.Encode()
		put(int64(len(g)))
		buf = append(buf, g...)
		// Cost sites join the encoding only when collected, keeping
		// cost-off traces byte-identical to pre-cost-channel builds.
		if len(inv.Cost) > 0 {
			put(int64(len(inv.Cost)))
			for _, c := range inv.Cost {
				put(int64(c.Metric))
				put(int64(c.Block))
				put(int64(c.Instr))
				put(c.Events)
				put(c.Total)
			}
		}
	}
	return buf
}

// Hash returns the canonical SHA-256 of the trace. Two inputs producing
// equal hashes are in the same input class (§VI).
func (t *ProgramTrace) Hash() [32]byte { return sha256.Sum256(t.Encode()) }

// Equal reports whether t and o have the same canonical encoding, so
// that Hash would agree, and the same invocation Kernel names: all an
// evidence merge reads of a trace. It walks the two traces side by side
// without encoding or hashing either. A nil slice equals an empty one.
func (t *ProgramTrace) Equal(o *ProgramTrace) bool {
	if t.Program != o.Program || !slices.Equal(t.Allocs, o.Allocs) || len(t.Invocations) != len(o.Invocations) {
		return false
	}
	for i, inv := range t.Invocations {
		oi := o.Invocations[i]
		if inv.StackID != oi.StackID || inv.Kernel != oi.Kernel ||
			inv.Grid.Count() != oi.Grid.Count() || inv.Block.Count() != oi.Block.Count() ||
			!slices.Equal(inv.Cost, oi.Cost) || !inv.Graph.Equal(oi.Graph) {
			return false
		}
	}
	return true
}

// SizeBytes returns the canonical encoded trace size (Fig. 5 metric).
func (t *ProgramTrace) SizeBytes() int { return len(t.Encode()) }

// String summarizes the trace.
func (t *ProgramTrace) String() string {
	return fmt.Sprintf("trace(%s: %d launches, %d allocs, %d bytes)",
		t.Program, len(t.Invocations), len(t.Allocs), t.SizeBytes())
}
