// Evidence merging (§VII-A): repeated executions of the program merge into
// a single piece of evidence per input regime — E_fix from fixed inputs and
// E_rnd from random inputs. Kernel-invocation sequences align with the
// Myers algorithm. An aligned invocation keeps what the tests of §VII-C
// read: its per-run presence, each node's per-run transition counts, and
// one record per memory instruction holding the address histogram merged
// over the runs and each run's summary of it.
package core

import (
	"owl/internal/adcfg"
	"owl/internal/evidence"
	"owl/internal/isa"
	"owl/internal/myers"
	"owl/internal/trace"
)

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

// InvEvidence accumulates one aligned kernel-invocation position.
type InvEvidence struct {
	StackID string
	Kernel  string
	// Presence[r] is 1 when run r contained this invocation.
	Presence []float64
	// PairSamples[block][pair][r] is the (src,dst) transition count of the
	// node in run r — the per-run control-flow transition-matrix entries of
	// Eq. 8. Every node of every merged run has an entry.
	PairSamples map[int]map[adcfg.PairKey][]float64
	// Mems holds one record per memory-instruction occurrence.
	Mems map[evidence.MemKey]*MemFeature
}

func newInvEvidence(stackID, kernel string) *InvEvidence {
	return &InvEvidence{
		StackID:     stackID,
		Kernel:      kernel,
		PairSamples: make(map[int]map[adcfg.PairKey][]float64),
		Mems:        make(map[evidence.MemKey]*MemFeature),
	}
}

// Evidence is E_fix or E_rnd: the merged invocation sequence plus per-run
// feature samples over a number of runs.
type Evidence struct {
	Runs int
	Invs []*InvEvidence
}

// NewEvidence returns empty evidence.
func NewEvidence() *Evidence { return &Evidence{} }

// pad extends xs with zeros to length n.
func pad(xs []float64, n int) []float64 {
	for len(xs) < n {
		xs = append(xs, 0)
	}
	return xs
}

// AddRun merges one program trace as the next run.
func (e *Evidence) AddRun(t *trace.ProgramTrace) {
	runIdx := e.Runs
	base := make([]string, len(e.Invs))
	for i, inv := range e.Invs {
		base[i] = inv.StackID
	}
	ops := myers.Diff(base, t.StackSeq())

	var merged []*InvEvidence
	for _, op := range ops {
		switch op.Kind {
		case myers.Match:
			inv := e.Invs[op.AIdx]
			e.mergeRunInvocation(inv, t.Invocations[op.BIdx], runIdx)
			merged = append(merged, inv)
		case myers.Delete:
			// Present in evidence, absent from this run.
			merged = append(merged, e.Invs[op.AIdx])
		case myers.Insert:
			ti := t.Invocations[op.BIdx]
			inv := newInvEvidence(ti.StackID, ti.Kernel)
			e.mergeRunInvocation(inv, ti, runIdx)
			merged = append(merged, inv)
		}
	}
	e.Invs = merged
	e.Runs++
	// Normalize: every sample vector ends this run with length e.Runs.
	for _, inv := range e.Invs {
		inv.Presence = pad(inv.Presence, e.Runs)
		for _, pairs := range inv.PairSamples {
			for pk := range pairs {
				pairs[pk] = pad(pairs[pk], e.Runs)
			}
		}
	}
}

// mergeRunInvocation folds one run's invocation into the evidence entry
// in one walk over the run graph's nodes, visits and histograms.
func (e *Evidence) mergeRunInvocation(inv *InvEvidence, ti *trace.Invocation, runIdx int) {
	inv.Presence = pad(inv.Presence, runIdx)
	inv.Presence = append(inv.Presence, 1)
	for block, node := range ti.Graph.Nodes {
		pairs := inv.PairSamples[block]
		if pairs == nil {
			pairs = make(map[adcfg.PairKey][]float64)
			inv.PairSamples[block] = pairs
		}
		for pk, c := range node.Pairs {
			xs := pad(pairs[pk], runIdx)
			pairs[pk] = append(xs, float64(c))
		}
		for j, v := range node.Visits {
			for mi, h := range v.Mems {
				if h == nil {
					continue
				}
				key := evidence.MemKey{Block: block, Visit: j, Mem: mi}
				f := inv.Mems[key]
				if f == nil {
					f = &MemFeature{Space: h.Space, Store: h.Store}
					inv.Mems[key] = f
				}
				if len(h.Cells) == 0 {
					continue
				}
				f.Hist.Add(h.Cells)
				mean, spread := adcfg.Summary(h.Cells)
				f.Means = append(f.Means, mean)
				f.Spreads = append(f.Spreads, spread)
			}
		}
	}
}
