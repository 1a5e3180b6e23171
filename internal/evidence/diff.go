package evidence

import (
	"owl/internal/adcfg"
	"owl/internal/isa"
	"owl/internal/myers"
	"owl/internal/stats"
	"owl/internal/trace"
)

// Diff is the diff channel's evidence of one input regime, E_fix or E_rnd
// (§VII-A): the invocation sequence merged over the runs, aligned with
// the Myers algorithm, with per-run feature samples. An aligned
// invocation keeps what the tests of §VII-C read: its per-run presence,
// each node's per-run transition counts, and one record per memory
// instruction holding the address histogram merged over the runs and
// each run's summary of it.
//
// A per-run sample is held as counted runs (stats.Counted): equal values
// of consecutive runs share one entry, so k counted copies of a trace
// add one entry, and a site that reads the same in every run costs one
// entry. A sample whose value changes grows once past its first entry,
// taking room for the rest of the regime's runs (its budget).
type Diff struct {
	Runs int
	Invs []*InvEvidence

	budget int           // the runs the regime records
	slab   []stats.Count // room for new samples' first entries

	// scratch reused across runs by align
	stacks, seq []string
	at          []*InvEvidence
	// scratch reused by scale
	scaled []adcfg.Cell
}

// NewDiff returns empty evidence for a regime that records budget runs.
// The budget only sizes the samples: evidence may merge more runs.
func NewDiff(budget int) *Diff { return &Diff{budget: budget} }

// AddRun merges one program trace as the next run.
func (d *Diff) AddRun(t *trace.ProgramTrace) { Merge(Fixed, t, d, nil) }

// InvEvidence accumulates one aligned kernel-invocation position.
type InvEvidence struct {
	StackID string
	Kernel  string
	// Presence holds, per run, 1 when the run contained this invocation
	// and 0 when it did not.
	Presence stats.Counted
	// Sites holds, per block, the per-run (src,dst) transition counts of
	// the node — the control-flow transition-matrix entries of Eq. 8,
	// every entry padded with zeros to one observation per run — and one
	// record per memory-instruction occurrence, nil where no run had one.
	Sites Sites[stats.Counted, *MemFeature]
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
	// Means holds, per run in which the instruction accessed memory, the
	// run's count-weighted mean accessed offset; Spreads that run's
	// max-min offset range. A record whose runs all had every lane
	// predicated off has none.
	Means   stats.Counted
	Spreads stats.Counted
}

// Runs returns the number of runs in which the instruction accessed memory.
func (f *MemFeature) Runs() int { return f.Means.N() }

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

// room returns how many of the regime's runs are left after the n runs
// being merged: the most entries a sample can gain after them.
func (d *Diff) room(n int) int { return d.budget - d.Runs - n }

// seed gives an empty sample room for its first entry, cut from a slab
// the diff allocates many entries at a time: most samples never need a
// second entry, and those allocate nothing of their own.
func (d *Diff) seed(c *stats.Counted) {
	if cap(c.Counts) > 0 {
		return
	}
	if len(d.slab) == 0 {
		d.slab = make([]stats.Count, 256)
	}
	c.Counts, d.slab = d.slab[:0:1], d.slab[1:]
}

// add adds the n runs being merged, each observing x, to a presence or
// pair sample, after one zero entry for the runs before them that the
// sample has not seen: those of a record this walk created.
func (d *Diff) add(c *stats.Counted, x float64, n int) {
	d.seed(c)
	room := d.room(n)
	c.Add(0, d.Runs-c.N(), room)
	c.Add(x, n, room)
}

// endRuns closes the n runs the walk merged: every presence and pair
// sample ends them with one observation per run, a sample the walk did
// not reach with one zero entry.
func (d *Diff) endRuns(n int) {
	room := d.room(n)
	d.Runs += n
	for _, inv := range d.Invs {
		inv.Presence.Add(0, d.Runs-inv.Presence.N(), room)
		for _, blk := range inv.Sites {
			for i := range blk.Pairs {
				rec := &blk.Pairs[i].Rec
				rec.Add(0, d.Runs-rec.N(), room)
			}
		}
	}
}
