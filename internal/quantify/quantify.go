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
package quantify

import (
	"fmt"
	"math"
	"sort"

	"owl/internal/adcfg"
	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/myers"
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
// det, merges them into evidence, and estimates per-feature leakage.
func Quantify(det *core.Detector, p cuda.Program, fixed []byte, gen cuda.InputGen, runs int) (*Report, error) {
	if runs < 2 {
		return nil, fmt.Errorf("quantify: need at least 2 runs, got %d", runs)
	}
	if gen == nil {
		return nil, fmt.Errorf("quantify: nil input generator")
	}
	eFix, eRnd := core.NewEvidence(), core.NewEvidence()
	for i := 0; i < runs; i++ {
		tr, err := det.RecordOnce(p, fixed)
		if err != nil {
			return nil, err
		}
		eFix.AddRun(tr)
	}
	genRNG := det.GenRNG()
	for i := 0; i < runs; i++ {
		tr, err := det.RecordOnce(p, gen(genRNG))
		if err != nil {
			return nil, err
		}
		eRnd.AddRun(tr)
	}
	return FromEvidence(p.Name(), eFix, eRnd), nil
}

// FromEvidence estimates leakage from already-merged evidence.
func FromEvidence(program string, eFix, eRnd *core.Evidence) *Report {
	rep := &Report{Program: program}

	fixSeq := make([]string, len(eFix.Invs))
	for i, inv := range eFix.Invs {
		fixSeq[i] = inv.StackID
	}
	rndSeq := make([]string, len(eRnd.Invs))
	for i, inv := range eRnd.Invs {
		rndSeq[i] = inv.StackID
	}
	for _, op := range myers.Diff(fixSeq, rndSeq) {
		if op.Kind != myers.Match {
			continue
		}
		fi, ri := eFix.Invs[op.AIdx], eRnd.Invs[op.BIdx]
		quantifyInvocation(rep, fi, ri)
	}
	sort.SliceStable(rep.Estimates, func(i, j int) bool {
		return rep.Estimates[i].JSDBits > rep.Estimates[j].JSDBits
	})
	return rep
}

func quantifyInvocation(rep *Report, fi, ri *core.InvEvidence) {
	// Memory features: offset distributions per instruction occurrence.
	for key := range fi.MemSamples {
		fh := fi.MemHist(key)
		rh := ri.MemHist(key)
		if fh == nil || rh == nil {
			continue
		}
		fd := distFromHist(fh.Cells)
		rd := distFromHist(rh.Cells)
		rep.Estimates = append(rep.Estimates, Estimate{
			Kind: MemoryFeature, StackID: fi.StackID, Kernel: fi.Kernel,
			Block: key.Block, Visit: key.Visit, MemIndex: key.Mem,
			JSDBits:          jsd(fd, rd),
			FixEntropyBits:   entropy(fd),
			RndEntropyBits:   entropy(rd),
			EntropyDeltaBits: entropy(rd) - entropy(fd),
		})
	}

	// Transition features: per-node (src,dst) pair distributions.
	for block, fn := range fi.Graph.Nodes {
		rn := ri.Graph.Nodes[block]
		if rn == nil {
			continue
		}
		fd := distFromPairs(fn.Pairs)
		rd := distFromPairs(rn.Pairs)
		if len(fd) == 0 || len(rd) == 0 {
			continue
		}
		rep.Estimates = append(rep.Estimates, Estimate{
			Kind: TransitionFeature, StackID: fi.StackID, Kernel: fi.Kernel,
			Block:            block,
			JSDBits:          jsd(fd, rd),
			FixEntropyBits:   entropy(fd),
			RndEntropyBits:   entropy(rd),
			EntropyDeltaBits: entropy(rd) - entropy(fd),
		})
	}
}

// dist is a normalized probability distribution over discrete symbols.
type dist map[uint64]float64

func distFromHist(cells []adcfg.Cell) dist {
	var total float64
	for _, c := range cells {
		total += float64(c.Count)
	}
	d := make(dist, len(cells))
	if total == 0 {
		return d
	}
	for _, c := range cells {
		d[c.Addr] = float64(c.Count) / total
	}
	return d
}

func distFromPairs(pairs map[adcfg.PairKey]int64) dist {
	var total float64
	for _, c := range pairs {
		total += float64(c)
	}
	d := make(dist, len(pairs))
	if total == 0 {
		return d
	}
	for pk, c := range pairs {
		// Encode the pair as one symbol.
		sym := uint64(uint32(int32(pk.Src)))<<32 | uint64(uint32(int32(pk.Dst)))
		d[sym] += float64(c) / total
	}
	return d
}

// entropy returns the Shannon entropy in bits.
func entropy(d dist) float64 {
	var h float64
	for _, p := range d {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// jsd returns the Jensen-Shannon divergence in bits (0..1).
func jsd(p, q dist) float64 {
	m := make(dist, len(p)+len(q))
	for s, v := range p {
		m[s] += v / 2
	}
	for s, v := range q {
		m[s] += v / 2
	}
	return entropy(m) - (entropy(p)+entropy(q))/2
}
