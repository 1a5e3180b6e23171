// Evidence merging (§VII-A): repeated executions of the program merge into
// a single piece of evidence per input regime — E_fix from fixed inputs and
// E_rnd from random inputs. Kernel-invocation sequences align with the
// Myers algorithm; aligned invocations merge their A-DCFGs with the same
// aggregation used for warps, and every statistical feature additionally
// keeps its per-run sample vector so the distribution test can compare
// fixed-regime and random-regime feature distributions.
package core

import (
	"owl/internal/adcfg"
	"owl/internal/myers"
	"owl/internal/trace"
)

// MemKey identifies one memory-instruction occurrence: the memIdx-th
// memory instruction during the Visit-th visit of a block.
type MemKey struct {
	Block, Visit, Mem int
}

// MemFeature carries the run-level samples of one memory instruction.
// Accesses within a single execution are correlated (one secret drives all
// warps), so the distribution test works on per-run summaries plus the
// pooled histogram with run-based effective sizes.
type MemFeature struct {
	// Means[i] is the count-weighted mean accessed offset in the i-th run
	// in which the instruction executed; Spreads[i] is that run's max-min
	// offset range.
	Means   []float64
	Spreads []float64
}

// Runs returns the number of runs in which the instruction executed.
func (f *MemFeature) Runs() int { return len(f.Means) }

// InvEvidence accumulates one aligned kernel-invocation position.
type InvEvidence struct {
	StackID string
	Kernel  string
	// Graph is the A-DCFG merged over every run in which the invocation
	// occurred. The evidence merge may keep its histograms as dense
	// counts, so read them through MemHist, not Graph's Cells.
	Graph *adcfg.Graph
	// Presence[r] is 1 when run r contained this invocation.
	Presence []float64
	// PairSamples[block][pair][r] is the (src,dst) transition count of the
	// node in run r — the per-run control-flow transition-matrix entries of
	// Eq. 8.
	PairSamples map[int]map[adcfg.PairKey][]float64
	// MemSamples holds run-level address-histogram features per memory
	// instruction.
	MemSamples map[MemKey]*MemFeature
}

func newInvEvidence(stackID, kernel string) *InvEvidence {
	return &InvEvidence{
		StackID:     stackID,
		Kernel:      kernel,
		Graph:       adcfg.NewGraph(kernel),
		PairSamples: make(map[int]map[adcfg.PairKey][]float64),
		MemSamples:  make(map[MemKey]*MemFeature),
	}
}

// MemHist returns the merged address histogram of one memory-instruction
// occurrence, settled so its Cells are current, or nil when the graph
// holds none. It is the one read path for evidence histograms: the merge
// may keep them as dense counts whose Cells lag.
func (inv *InvEvidence) MemHist(key MemKey) *adcfg.MemHist {
	n := inv.Graph.Nodes[key.Block]
	if n == nil || key.Visit >= len(n.Visits) {
		return nil
	}
	v := n.Visits[key.Visit]
	if key.Mem >= len(v.Mems) || v.Mems[key.Mem] == nil {
		return nil
	}
	h := v.Mems[key.Mem]
	h.Settle()
	return h
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

// mergeRunInvocation folds one run's invocation into the evidence entry.
// The walk that folds each address histogram into the evidence graph also
// yields that run's mean/spread feature of the histogram.
func (e *Evidence) mergeRunInvocation(inv *InvEvidence, ti *trace.Invocation, runIdx int) {
	inv.Presence = pad(inv.Presence, runIdx)
	inv.Presence = append(inv.Presence, 1)
	inv.Graph.MergeSummaries(ti.Graph, func(block, visit, mem int, mean, spread float64) {
		key := MemKey{Block: block, Visit: visit, Mem: mem}
		f := inv.MemSamples[key]
		if f == nil {
			f = &MemFeature{}
			inv.MemSamples[key] = f
		}
		f.Means = append(f.Means, mean)
		f.Spreads = append(f.Spreads, spread)
	})
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
	}
}

// SizeBytes returns the canonical size of the merged graphs, the
// evidence-size metric used alongside Table IV.
func (e *Evidence) SizeBytes() int {
	n := 0
	for _, inv := range e.Invs {
		n += inv.Graph.SizeBytes()
	}
	return n
}
