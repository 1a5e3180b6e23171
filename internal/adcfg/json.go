package adcfg

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"owl/internal/isa"
)

// JSON interchange form. Map keys with struct types (PairKey, EdgeKey)
// flatten into arrays; ordering is canonical so serialized traces diff
// cleanly. Histogram cells convert to an address → count object at this
// boundary.

type graphJSON struct {
	Kernel string     `json:"kernel"`
	Warps  int64      `json:"warps"`
	Nodes  []nodeJSON `json:"nodes"`
	Edges  []edgeJSON `json:"edges"`
}

type nodeJSON struct {
	Block  int         `json:"block"`
	Visits []visitJSON `json:"visits"`
	Pairs  []pairJSON  `json:"pairs,omitempty"`
}

type visitJSON struct {
	Count int64      `json:"count"`
	Mems  []*memJSON `json:"mems,omitempty"`
}

type memJSON struct {
	Space isa.Space        `json:"space"`
	Store bool             `json:"store,omitempty"`
	Addrs map[uint64]int64 `json:"addrs"`
}

type pairJSON struct {
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Count int64 `json:"count"`
}

type edgeJSON struct {
	Src   int        `json:"src"`
	Dst   int        `json:"dst"`
	Count int64      `json:"count"`
	Prev  []pairJSON `json:"prev,omitempty"`
}

// MarshalJSON implements json.Marshaler with canonical ordering.
func (g *Graph) MarshalJSON() ([]byte, error) {
	out := graphJSON{Kernel: g.Kernel, Warps: g.Warps}

	nodeIDs := make([]int, 0, len(g.Nodes))
	for id := range g.Nodes {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Ints(nodeIDs)
	for _, id := range nodeIDs {
		n := g.Nodes[id]
		nj := nodeJSON{Block: id}
		for _, v := range n.Visits {
			vj := visitJSON{Count: v.Count}
			for _, h := range v.Mems {
				if h == nil {
					vj.Mems = append(vj.Mems, nil)
					continue
				}
				addrs := make(map[uint64]int64, len(h.Cells))
				for _, c := range h.Cells {
					addrs[c.Addr] = c.Count
				}
				vj.Mems = append(vj.Mems, &memJSON{Space: h.Space, Store: h.Store, Addrs: addrs})
			}
			nj.Visits = append(nj.Visits, vj)
		}
		nj.Pairs = sortedPairs(n.Pairs)
		out.Nodes = append(out.Nodes, nj)
	}

	edgeKeys := make([]EdgeKey, 0, len(g.Edges))
	for ek := range g.Edges {
		edgeKeys = append(edgeKeys, ek)
	}
	sort.Slice(edgeKeys, func(i, j int) bool {
		if edgeKeys[i].Src != edgeKeys[j].Src {
			return edgeKeys[i].Src < edgeKeys[j].Src
		}
		return edgeKeys[i].Dst < edgeKeys[j].Dst
	})
	for _, ek := range edgeKeys {
		e := g.Edges[ek]
		prev := make(map[PairKey]int64, len(e.Prev))
		for pk, c := range e.Prev {
			prev[PairKey(pk)] = c
		}
		out.Edges = append(out.Edges, edgeJSON{
			Src: ek.Src, Dst: ek.Dst, Count: e.Count, Prev: sortedPairs(prev),
		})
	}
	return json.Marshal(out)
}

func sortedPairs(m map[PairKey]int64) []pairJSON {
	out := make([]pairJSON, 0, len(m))
	for pk, c := range m {
		out = append(out, pairJSON{Src: pk.Src, Dst: pk.Dst, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var in graphJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("adcfg: decode graph: %w", err)
	}
	*g = *NewGraph(in.Kernel)
	g.Warps = in.Warps
	for _, nj := range in.Nodes {
		n := g.node(nj.Block)
		for _, vj := range nj.Visits {
			v := &Visit{Count: vj.Count}
			for _, mj := range vj.Mems {
				if mj == nil {
					v.Mems = append(v.Mems, nil)
					continue
				}
				h := newMemHist(mj.Space, mj.Store)
				for a, c := range mj.Addrs {
					h.Cells = append(h.Cells, Cell{Addr: a, Count: c})
				}
				slices.SortFunc(h.Cells, func(x, y Cell) int { return cmp.Compare(x.Addr, y.Addr) })
				v.Mems = append(v.Mems, h)
			}
			n.Visits = append(n.Visits, v)
		}
		for _, pj := range nj.Pairs {
			n.Pairs[PairKey{Src: pj.Src, Dst: pj.Dst}] = pj.Count
		}
	}
	for _, ej := range in.Edges {
		e := g.edge(EdgeKey{Src: ej.Src, Dst: ej.Dst})
		e.Count = ej.Count
		for _, pj := range ej.Prev {
			e.Prev[EdgeKey{Src: pj.Src, Dst: pj.Dst}] = pj.Count
		}
	}
	return nil
}
