package evidence

import (
	"fmt"
	"math"
	"strings"

	"owl/internal/stats"
)

// EngineState renders every accumulator of e, each float by its bits: the
// run and presence counts, every Welford accumulator of every pair, memory
// and cost site, and each MI estimate. Two engines that render alike hold
// the same statistics bit for bit.
func EngineState(e *Engine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runs %v\n", e.runs)
	for _, a := range e.invs {
		fmt.Fprintf(&b, "inv %s#%d %s present %v\n", a.id.stack, a.id.occ, a.kernel, a.present)
		for blk, s := range a.sites {
			for _, p := range s.Pairs {
				fmt.Fprintf(&b, " pair %d %v %s\n", blk, p.Pair, welfords(p.Rec.w))
			}
			for j, visit := range s.Mems {
				for mi, m := range visit {
					if m.mi != nil {
						fmt.Fprintf(&b, " mem %d.%d.%d mean %s spread %s mi %x\n", blk, j, mi,
							welfords(m.mean), welfords(m.spread), math.Float64bits(m.mi.Bits()))
					}
				}
			}
		}
		for _, c := range a.costs {
			fmt.Fprintf(&b, " cost %v %s mi %x\n", c.key, welfords(c.w), math.Float64bits(c.mi.Bits()))
		}
	}
	return b.String()
}

func welfords(ws [2]stats.Welford) string {
	var b strings.Builder
	for _, w := range ws {
		fmt.Fprintf(&b, "[%x %x %x]", math.Float64bits(w.Count), math.Float64bits(w.Mean), math.Float64bits(w.M2))
	}
	return b.String()
}
