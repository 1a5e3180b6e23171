package adcfg

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"owl/internal/isa"
)

// JSON interchange form. Pair maps flatten into arrays; ordering is
// canonical so serialized traces diff cleanly. Histogram cells convert to
// an address → count object at this boundary. The edges are written for
// readers of the file and ignored on read: Graph.Edges derives them from
// the pairs.

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

	for _, id := range g.nodeIDs() {
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
		for _, pk := range sortedPairs(n.Pairs) {
			nj.Pairs = append(nj.Pairs, pairJSON{Src: pk.Src, Dst: pk.Dst, Count: n.Pairs[pk]})
		}
		out.Nodes = append(out.Nodes, nj)
	}
	for _, e := range g.Edges() {
		ej := edgeJSON{Src: e.Src, Dst: e.Dst, Count: e.Count}
		for _, p := range e.Prev {
			ej.Prev = append(ej.Prev, pairJSON{Src: p.Src, Dst: p.Dst, Count: p.Count})
		}
		out.Edges = append(out.Edges, ej)
	}
	return json.Marshal(out)
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
				h := g.hist(mj.Space, mj.Store)
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
	return nil
}
