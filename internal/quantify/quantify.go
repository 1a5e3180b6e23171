// Package quantify estimates how much secret information each leak
// carries, in bits — the quantification direction the paper cites from
// CacheQL (§III-B). Two information measures are computed per feature from
// the same fixed-vs-random evidence the detector uses:
//
//   - JSDBits: the Jensen-Shannon divergence between the fixed-input and
//     random-input observation distributions, in [0, 1] bits. It measures
//     how distinguishable one secret is from the input population — the
//     attacker's per-observation advantage.
//   - EntropyDeltaBits: H(observation | random secrets) − H(observation |
//     the fixed secret). Large positive values mean the observation varies
//     with the secret but is (nearly) pinned once the secret is fixed —
//     i.e. the observation encodes the secret. The AES T-table lookups
//     score close to 8 bits; constant-execution code scores ~0.
//
// Quantify records through the detector's Runner (Detector.RecordEach),
// like every other recording, so the detector's Workers or Runner option
// parallelizes it without changing an estimate. Each trace is released
// as soon as it is merged, except the first fixed-input run's: the fixed
// runs equal to it merge as counted copies of it, so it is held until
// the fixed-input loop ends.
package quantify

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"owl/internal/adcfg"
	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/myers"
	"owl/internal/trace"
)

// FeatureKind distinguishes quantified features.
type FeatureKind uint8

// Feature kinds.
const (
	MemoryFeature FeatureKind = iota + 1
	TransitionFeature
)

// String names the kind.
func (k FeatureKind) String() string {
	if k == MemoryFeature {
		return "memory"
	}
	return "transition"
}

// Estimate is the quantified leakage of one feature.
type Estimate struct {
	Kind             FeatureKind
	StackID          string
	Kernel           string
	Block            int
	Visit            int // MemoryFeature only
	MemIndex         int // MemoryFeature only
	JSDBits          float64
	EntropyDeltaBits float64
	FixEntropyBits   float64
	RndEntropyBits   float64
}

// Location renders the feature position.
func (e Estimate) Location() string {
	if e.Kind == MemoryFeature {
		return fmt.Sprintf("%s:B%d:v%d:mem%d", e.StackID, e.Block, e.Visit, e.MemIndex)
	}
	return fmt.Sprintf("%s:B%d", e.StackID, e.Block)
}

// Report holds the estimates of one program, most leaky first.
type Report struct {
	Program   string
	Estimates []Estimate
}

// Top returns the n most leaky features by JSD.
func (r *Report) Top(n int) []Estimate {
	if n > len(r.Estimates) {
		n = len(r.Estimates)
	}
	return r.Estimates[:n]
}

// MaxJSD returns the largest per-feature JSD, 0 when nothing was measured.
func (r *Report) MaxJSD() float64 {
	if len(r.Estimates) == 0 {
		return 0
	}
	return r.Estimates[0].JSDBits
}

// Quantify records runs fixed-input and random-input executions through
// det, merges each trace into evidence as it arrives, and estimates
// per-feature leakage. Seeds and inputs are drawn in one order for any
// worker count, so the estimates are too.
func Quantify(det *core.Detector, p cuda.Program, fixed []byte, gen cuda.InputGen, runs int) (*Report, error) {
	if runs < 2 {
		return nil, fmt.Errorf("quantify: need at least 2 runs, got %d", runs)
	}
	if gen == nil {
		return nil, fmt.Errorf("quantify: nil input generator")
	}
	ctx := context.Background()
	inputs := make([][]byte, runs)
	for i := range inputs {
		inputs[i] = fixed
	}
	// A fixed run whose trace equals the first fixed run's merges as one
	// more copy of it, and the copies counted in a row merge in one walk
	// (evidence.MergeN) before the next differing run does.
	eFix, eRnd := evidence.NewDiff(), evidence.NewDiff()
	var first *trace.ProgramTrace
	copies := 0
	flush := func() {
		if copies > 0 {
			evidence.MergeN(evidence.Fixed, first, eFix, nil, copies)
			copies = 0
		}
	}
	err := det.RecordEach(ctx, p, inputs, func(_ int, t *trace.ProgramTrace) error {
		switch {
		case first == nil:
			first, copies = t, 1
			return nil
		case t.Equal(first):
			copies++
		default:
			flush()
			eFix.AddRun(t)
		}
		trace.Release(t)
		return nil
	})
	if err != nil {
		trace.Release(first)
		return nil, err
	}
	flush()
	trace.Release(first)
	genRNG := det.GenRNG()
	for i := range inputs {
		inputs[i] = gen(genRNG)
	}
	err = det.RecordEach(ctx, p, inputs, func(_ int, t *trace.ProgramTrace) error {
		eRnd.AddRun(t)
		trace.Release(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FromEvidence(p.Name(), eFix, eRnd), nil
}

// FromEvidence estimates leakage from already-merged evidence.
func FromEvidence(program string, eFix, eRnd *evidence.Diff) *Report {
	rep := &Report{Program: program}

	for _, op := range myers.Diff(eFix.Stacks(), eRnd.Stacks()) {
		if op.Kind != myers.Match {
			continue
		}
		fi, ri := eFix.Invs[op.AIdx], eRnd.Invs[op.BIdx]
		quantifyInvocation(rep, fi, ri)
	}
	// Equal scores fall back to the feature position: every call gives one order.
	slices.SortStableFunc(rep.Estimates, func(a, b Estimate) int {
		return cmp.Or(cmp.Compare(b.JSDBits, a.JSDBits), cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.StackID, b.StackID), cmp.Compare(a.Block, b.Block),
			cmp.Compare(a.Visit, b.Visit), cmp.Compare(a.MemIndex, b.MemIndex))
	})
	return rep
}

func quantifyInvocation(rep *Report, fi, ri *evidence.InvEvidence) {
	// Memory features: offset distributions per instruction occurrence.
	for b, blk := range fi.Sites {
		for j, visit := range blk.Mems {
			for m, ff := range visit {
				rf := ri.Sites.Mem(evidence.MemKey{Block: b, Visit: j, Mem: m})
				if ff == nil || ff.Runs() == 0 || rf == nil {
					continue
				}
				fd := distFromHist(ff.Hist.Cells())
				rd := distFromHist(rf.Hist.Cells())
				rep.Estimates = append(rep.Estimates, Estimate{
					Kind: MemoryFeature, StackID: fi.StackID, Kernel: fi.Kernel,
					Block: b, Visit: j, MemIndex: m,
					JSDBits:          jsd(fd, rd),
					FixEntropyBits:   entropy(fd),
					RndEntropyBits:   entropy(rd),
					EntropyDeltaBits: entropy(rd) - entropy(fd),
				})
			}
		}
	}

	// Transition features: per-node (src,dst) pair distributions.
	for b, blk := range fi.Sites {
		fd := distFromPairs(blk.Pairs)
		rd := distFromPairs(ri.Sites.Block(b).Pairs)
		if len(fd) == 0 || len(rd) == 0 {
			continue
		}
		rep.Estimates = append(rep.Estimates, Estimate{
			Kind: TransitionFeature, StackID: fi.StackID, Kernel: fi.Kernel,
			Block:            b,
			JSDBits:          jsd(fd, rd),
			FixEntropyBits:   entropy(fd),
			RndEntropyBits:   entropy(rd),
			EntropyDeltaBits: entropy(rd) - entropy(fd),
		})
	}
}

// dist is a normalized probability distribution over discrete symbols,
// held in strictly ascending symbol order so every sum over it runs in
// one order and gives one bit pattern.
type dist []mass

// mass is one symbol of a distribution with its probability.
type mass struct {
	sym uint64
	p   float64
}

// distFromHist takes the strictly ascending cells of a histogram.
func distFromHist(cells []adcfg.Cell) dist {
	var total float64
	for _, c := range cells {
		total += float64(c.Count)
	}
	if total == 0 {
		return nil
	}
	d := make(dist, len(cells))
	for i, c := range cells {
		d[i] = mass{c.Addr, float64(c.Count) / total}
	}
	return d
}

// distFromPairs takes a node's per-run transition counts: each pair's
// mass is its count summed over the runs. The counts are whole numbers,
// so the sums are exact in any order.
func distFromPairs(pairs []evidence.PairRecord[[]float64]) dist {
	var total float64
	d := make(dist, 0, len(pairs))
	for _, p := range pairs {
		var c float64
		for _, x := range p.Rec {
			c += x
		}
		// Encode the pair as one symbol.
		sym := uint64(uint32(int32(p.Pair.Src)))<<32 | uint64(uint32(int32(p.Pair.Dst)))
		d = append(d, mass{sym, c})
		total += c
	}
	if total == 0 {
		return nil
	}
	slices.SortFunc(d, func(a, b mass) int { return cmp.Compare(a.sym, b.sym) })
	for i := range d {
		d[i].p /= total
	}
	return d
}

// entropy returns the Shannon entropy in bits.
func entropy(d dist) float64 {
	var h float64
	for _, m := range d {
		if m.p > 0 {
			h -= m.p * math.Log2(m.p)
		}
	}
	return h
}

// jsd returns the Jensen-Shannon divergence in bits (0..1).
func jsd(p, q dist) float64 {
	m := make(dist, 0, len(p)+len(q))
	i, j := 0, 0
	for i < len(p) || j < len(q) {
		switch {
		case j == len(q) || i < len(p) && p[i].sym < q[j].sym:
			m = append(m, mass{p[i].sym, p[i].p / 2})
			i++
		case i == len(p) || q[j].sym < p[i].sym:
			m = append(m, mass{q[j].sym, q[j].p / 2})
			j++
		default:
			m = append(m, mass{p[i].sym, p[i].p/2 + q[j].p/2})
			i, j = i+1, j+1
		}
	}
	return entropy(m) - (entropy(p)+entropy(q))/2
}
