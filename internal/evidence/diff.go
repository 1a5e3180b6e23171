package evidence

import (
	"owl/internal/adcfg"
	"owl/internal/isa"
	"owl/internal/myers"
	"owl/internal/trace"
)

// Diff is the diff channel's evidence of one input regime, E_fix or E_rnd
// (§VII-A): the invocation sequence merged over the runs, aligned with
// the Myers algorithm, with per-run feature samples. An aligned
// invocation keeps what the tests of §VII-C read: its per-run presence,
// each node's per-run transition counts, and one record per memory
// instruction holding the address histogram merged over the runs and
// each run's summary of it.
type Diff struct {
	Runs int
	Invs []*InvEvidence

	// scratch reused across runs by align
	stacks, seq []string
	at          []*InvEvidence
	// scratch reused by scale
	scaled []adcfg.Cell
}

// NewDiff returns empty evidence.
func NewDiff() *Diff { return &Diff{} }

// AddRun merges one program trace as the next run.
func (d *Diff) AddRun(t *trace.ProgramTrace) { Merge(Fixed, t, d, nil) }

// InvEvidence accumulates one aligned kernel-invocation position.
type InvEvidence struct {
	StackID string
	Kernel  string
	// Presence[r] is 1 when run r contained this invocation.
	Presence []float64
	// Sites holds, per block, the per-run (src,dst) transition counts of
	// the node — the control-flow transition-matrix entries of Eq. 8,
	// every entry padded to one sample per run — and one record per
	// memory-instruction occurrence, nil where no run had one.
	Sites Sites[[]float64, *MemFeature]
}

// MemFeature is the evidence record of one memory-instruction occurrence.
// Accesses within a single execution are correlated (one secret drives all
// warps), so the distribution test works on per-run summaries plus the
// pooled histogram with run-based effective sizes.
type MemFeature struct {
	Space isa.Space
	Store bool
	// Hist is the address histogram merged over every run.
	Hist adcfg.EvidenceHist
	// Means[i] is the count-weighted mean accessed offset in the i-th run
	// in which the instruction accessed memory; Spreads[i] is that run's
	// max-min offset range. A record whose runs all had every lane
	// predicated off has none.
	Means   []float64
	Spreads []float64
}

// Runs returns the number of runs in which the instruction accessed memory.
func (f *MemFeature) Runs() int { return len(f.Means) }

// Stacks returns the stack identities of the merged invocation sequence,
// the unit of the Myers alignment between E_fix and E_rnd.
func (d *Diff) Stacks() []string {
	ids := make([]string, len(d.Invs))
	for i, inv := range d.Invs {
		ids[i] = inv.StackID
	}
	return ids
}

// align aligns t's invocations with the merged sequence by the Myers
// diff of their stack identities, merges the sequence, and returns the
// record of each of t's invocations: a matched one, or a new one
// inserted where the diff puts it. It reports whether it inserted any.
func (d *Diff) align(t *trace.ProgramTrace) (at []*InvEvidence, inserted bool) {
	d.stacks = d.stacks[:0]
	for _, inv := range d.Invs {
		d.stacks = append(d.stacks, inv.StackID)
	}
	d.seq = d.seq[:0]
	for _, ti := range t.Invocations {
		d.seq = append(d.seq, ti.StackID)
	}
	ops := myers.Diff(d.stacks, d.seq)
	d.at = append(d.at[:0], make([]*InvEvidence, len(t.Invocations))...)
	merged := make([]*InvEvidence, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case myers.Match:
			d.at[op.BIdx] = d.Invs[op.AIdx]
			merged = append(merged, d.Invs[op.AIdx])
		case myers.Delete:
			// Present in evidence, absent from this run.
			merged = append(merged, d.Invs[op.AIdx])
		case myers.Insert:
			ti := t.Invocations[op.BIdx]
			inv := &InvEvidence{StackID: ti.StackID, Kernel: ti.Kernel}
			d.at[op.BIdx] = inv
			merged = append(merged, inv)
			inserted = true
		}
	}
	d.Invs = merged
	return d.at, inserted
}

// scale returns cells with every count multiplied by n: the histogram n
// runs of cells add up to. For n > 1 it is built in the diff's scratch,
// valid until the next call.
func (d *Diff) scale(cells []adcfg.Cell, n int) []adcfg.Cell {
	if n == 1 {
		return cells
	}
	d.scaled = d.scaled[:0]
	for _, c := range cells {
		d.scaled = append(d.scaled, adcfg.Cell{Addr: c.Addr, Count: c.Count * int64(n)})
	}
	return d.scaled
}

// endRuns closes the n runs the walk merged: every sample vector ends
// them with one sample per run.
func (d *Diff) endRuns(n int) {
	d.Runs += n
	for _, inv := range d.Invs {
		inv.Presence = pad(inv.Presence, d.Runs)
		for _, blk := range inv.Sites {
			for i := range blk.Pairs {
				blk.Pairs[i].Rec = pad(blk.Pairs[i].Rec, d.Runs)
			}
		}
	}
}

// pad extends xs with zeros to length n.
func pad(xs []float64, n int) []float64 {
	for len(xs) < n {
		xs = append(xs, 0)
	}
	return xs
}
