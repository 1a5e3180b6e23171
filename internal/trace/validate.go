package trace

import "fmt"

// MaxBlockID bounds the block ID of a graph node. The evidence merge
// indexes an invocation's sites by block ID, so a decoded node ID sizes
// that index.
const MaxBlockID = 1<<16 - 1

// Validate checks the structural invariants the rest of the pipeline
// assumes: no nil invocations, graphs, nodes, or visits; node block IDs
// in 0..MaxBlockID; histogram
// cells in strictly ascending address order with positive counts (merge
// walks them in order); cost sites in canonical order. Encode and Hash
// index straight into these structures, so a trace decoded from
// an untrusted byte stream — the cluster wire format, a file on disk —
// must pass here before any later use can panic on it. A graph stores no
// edges (adcfg.Graph.Edges derives them from the node pairs), so there
// are none to check. Decoders call Validate automatically; a trace built
// by the tracer always passes.
func (t *ProgramTrace) Validate() error {
	if t == nil {
		return fmt.Errorf("trace: nil trace")
	}
	for i, inv := range t.Invocations {
		if inv == nil {
			return fmt.Errorf("trace: invocation %d is nil", i)
		}
		if inv.Graph == nil {
			return fmt.Errorf("trace: invocation %d (%s) has no graph", i, inv.Kernel)
		}
		for id, n := range inv.Graph.Nodes {
			if n == nil {
				return fmt.Errorf("trace: invocation %d: node %d is nil", i, id)
			}
			if id < 0 || id > MaxBlockID {
				return fmt.Errorf("trace: invocation %d: node ID %d outside 0..%d", i, id, MaxBlockID)
			}
			for j, v := range n.Visits {
				if v == nil {
					return fmt.Errorf("trace: invocation %d: node %d visit %d is nil", i, id, j)
				}
				for mi, h := range v.Mems {
					if h == nil {
						continue
					}
					for ci, c := range h.Cells {
						if c.Count <= 0 {
							return fmt.Errorf("trace: invocation %d: node %d visit %d mem %d: address %d has count %d", i, id, j, mi, c.Addr, c.Count)
						}
						if ci > 0 && h.Cells[ci-1].Addr >= c.Addr {
							return fmt.Errorf("trace: invocation %d: node %d visit %d mem %d: cells not strictly ascending at %d", i, id, j, mi, ci)
						}
					}
				}
			}
		}
		for j, c := range inv.Cost {
			if c.Metric < CostBank || c.Metric > CostPower {
				return fmt.Errorf("trace: invocation %d: cost site %d has unknown metric %d", i, j, c.Metric)
			}
			if c.Block < 0 || c.Instr < 0 || c.Events <= 0 || c.Total < 0 {
				return fmt.Errorf("trace: invocation %d: cost site %d is malformed (%+v)", i, j, c)
			}
			if j > 0 && !costLess(inv.Cost[j-1], c) {
				return fmt.Errorf("trace: invocation %d: cost sites not in canonical order at %d", i, j)
			}
		}
	}
	return nil
}
