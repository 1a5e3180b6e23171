// The diff channel's side of the analysis phase (§VII): each class
// regime's runs merge on arrival into its evidence, E_fix or E_rnd, and
// the Kolmogorov-Smirnov tests of §VII-C compare the two. The merge is
// evidence.Merge, one walk per run over each invocation's graph that
// feeds the diff evidence and, when it is on, the statistical engine;
// fixed runs that recorded the class representative's trace merge as
// counted copies of it, one walk per group (evidence.MergeN). The
// recording loop is analyzeClass, shared with the statistical channel.
package core

import (
	"fmt"
	"slices"

	"owl/internal/adcfg"
	"owl/internal/evidence"
	"owl/internal/isa"
	"owl/internal/myers"
	"owl/internal/stats"
)

// classRegime is one input regime of a class's leakage analysis: its
// requests, drawn up front, and the consumers its runs feed.
type classRegime struct {
	span string          // recording span name
	r    evidence.Regime // the statistical engine's regime
	reqs []RunRequest
	used int            // requests recorded so far
	ev   *evidence.Diff // diff-channel evidence; nil when the diff channel is off
}

// remaining reports whether either regime has requests left to record.
func remaining(fixed, random *classRegime) bool {
	return fixed.used < len(fixed.reqs) || random.used < len(random.reqs)
}

// reject runs the configured distribution test over two per-run
// samples and reports (reject?, p, D). Each sample is its values plus
// zeros observations of 0, counted rather than stored: a pair sample's
// runs without the transition. The KS test copies both samples into
// d.scratch, sorts them there and walks them in order, so once the
// scratch has grown a test allocates nothing.
func (d *Detector) reject(x []float64, xZeros int, y []float64, yZeros int) (bool, float64, float64, error) {
	if d.opts.UseWelch {
		sx, sy := stats.NewSample(x), stats.NewSample(y)
		for range xZeros {
			sx.Add(0, 1)
		}
		for range yZeros {
			sy.Add(0, 1)
		}
		r, err := stats.WelchT(sx, sy)
		if err != nil {
			return false, 1, 0, err
		}
		return r.Reject, 0, r.T, nil
	}
	d.scratch = append(append(d.scratch[:0], x...), y...)
	xs, ys := d.scratch[:len(x)], d.scratch[len(x):]
	slices.Sort(xs)
	slices.Sort(ys)
	r, err := stats.KSTestSorted(xs, xZeros, ys, yZeros, d.opts.Confidence)
	if err != nil {
		return false, 1, 0, err
	}
	return r.Reject, r.P, r.D, nil
}

// leakageTests compares E_fix with E_rnd (§VII-C).
func (d *Detector) leakageTests(eFix, eRnd *evidence.Diff, leaks *leakSet) error {
	for _, op := range myers.Diff(eFix.Stacks(), eRnd.Stacks()) {
		switch op.Kind {
		case myers.Delete:
			inv := eFix.Invs[op.AIdx]
			leaks.add(Leak{
				Kind: KernelLeak, StackID: inv.StackID, Kernel: inv.Kernel,
				P: 0, D: 1,
				Detail: "invocation absent under random inputs",
			})
		case myers.Insert:
			inv := eRnd.Invs[op.BIdx]
			leaks.add(Leak{
				Kind: KernelLeak, StackID: inv.StackID, Kernel: inv.Kernel,
				P: 0, D: 1,
				Detail: "invocation absent under fixed inputs",
			})
		case myers.Match:
			fi, ri := eFix.Invs[op.AIdx], eRnd.Invs[op.BIdx]
			if err := d.testInvocation(fi, ri, leaks); err != nil {
				return err
			}
		}
	}
	return nil
}

// testInvocation runs the per-kernel tests for one aligned invocation.
// A leak's description (its block label, annotation and detail) is
// formatted only when the leak set records it.
func (d *Detector) testInvocation(fi, ri *evidence.InvEvidence, leaks *leakSet) error {
	// Kernel-leak test on per-run presence (aligned invocations with
	// differing invocation counts, §VII-C).
	rej, p, dd, err := d.reject(fi.Presence, 0, ri.Presence, 0)
	if err != nil {
		return err
	}
	if rej {
		leaks.add(Leak{
			Kind: KernelLeak, StackID: fi.StackID, Kernel: fi.Kernel,
			P: p, D: dd,
			Detail: "invocation frequency depends on the input",
		})
	}

	k := d.kernels[fi.Kernel]

	// Device control-flow leaks: KS over the per-run transition-matrix
	// entries of every node (Eq. 5-8), walking both sides' pairs of each
	// block in (Src, Dst) order.
	for b := range max(len(fi.Sites), len(ri.Sites)) {
		fp, rp := fi.Sites.Block(b).Pairs, ri.Sites.Block(b).Pairs
		for len(fp) > 0 || len(rp) > 0 {
			var pk adcfg.PairKey
			var x, y []float64
			switch {
			case len(rp) == 0 || len(fp) > 0 && fp[0].Pair.Compare(rp[0].Pair) < 0:
				pk, x, fp = fp[0].Pair, fp[0].Rec, fp[1:]
			case len(fp) == 0 || rp[0].Pair.Compare(fp[0].Pair) < 0:
				pk, y, rp = rp[0].Pair, rp[0].Rec, rp[1:]
			default:
				pk, x, y, fp, rp = fp[0].Pair, fp[0].Rec, rp[0].Rec, fp[1:], rp[1:]
			}
			rej, p, dd, err := d.reject(x, eRuns(fi)-len(x), y, eRuns(ri)-len(y))
			if err != nil {
				return err
			}
			if !rej {
				continue
			}
			if l := leaks.add(Leak{
				Kind: ControlFlowLeak, StackID: fi.StackID, Kernel: fi.Kernel,
				Block: b, Pair: pk, P: p, D: dd,
			}); l != nil {
				l.BlockLabel = blockLabel(k, b)
				l.Detail = fmt.Sprintf("transition (%s -> %s) distribution differs",
					pairEnd(k, pk.Src), pairEnd(k, pk.Dst))
			}
		}
	}

	// Device data-flow leaks: each memory instruction's address histograms
	// are compared in access order (§VII-C). Accesses without a counterpart
	// are control-flow effects and are excluded — their block-visit
	// differences already surface in the pair test. Because the accesses
	// within one execution all derive from the same secret, significance is
	// computed at run granularity: the pooled offset ECDFs use run-based
	// effective sizes, and the per-run mean/spread summaries are tested as
	// independent run-level samples. This keeps input-independent
	// randomness (e.g. ORAM-style random offsets) below threshold.
	for b, blk := range fi.Sites {
		for j, visit := range blk.Mems {
			for m, ff := range visit {
				if ff == nil || ff.Runs() == 0 {
					continue
				}
				rf := ri.Sites.Mem(evidence.MemKey{Block: b, Visit: j, Mem: m})
				if rf == nil || rf.Runs() == 0 {
					continue // no counterpart: control-flow effect
				}
				rej, p, dd, err := d.rejectMem(ff, rf)
				if err != nil {
					return err
				}
				if !rej {
					continue
				}
				if l := leaks.add(Leak{
					Kind: DataFlowLeak, StackID: fi.StackID, Kernel: fi.Kernel,
					Block: b, Visit: j, MemIndex: m, P: p, D: dd,
				}); l != nil {
					l.BlockLabel = blockLabel(k, b)
					l.Where = memAnnotation(k, b, m)
					l.Detail = fmt.Sprintf("%s %s address distribution depends on the input",
						ff.Space, storeName(ff.Store))
				}
			}
		}
	}
	return nil
}

// rejectMem runs the data-flow distribution tests for one instruction and
// returns the strongest rejection: the one with the smallest p among the
// rejecting tests, or among all when none rejects.
func (d *Detector) rejectMem(ff, rf *evidence.MemFeature) (bool, float64, float64, error) {
	var (
		have     bool
		rej      bool
		p, dStat float64
	)
	consider := func(r bool, pv, dv float64) {
		if !have || (r && !rej) || (r == rej && pv < p) {
			have, rej, p, dStat = true, r, pv, dv
		}
	}

	if !d.opts.UseWelch {
		// Pooled offset distributions with run-based effective sizes.
		dist, n, m := adcfg.KSDistance(&ff.Hist, &rf.Hist)
		res, err := stats.KSFromD(dist, float64(n), float64(m), d.opts.Confidence,
			float64(ff.Runs()), float64(rf.Runs()))
		if err != nil {
			return false, 1, 0, err
		}
		consider(res.Reject, res.P, res.D)
	}

	// Run-level summary features (skipped when a side has too few runs to
	// support the test).
	for _, pair := range [...][2][]float64{
		{ff.Means, rf.Means},
		{ff.Spreads, rf.Spreads},
	} {
		if len(pair[0]) < 2 || len(pair[1]) < 2 {
			continue
		}
		r, pv, dv, err := d.reject(pair[0], 0, pair[1], 0)
		if err != nil {
			return false, 1, 0, err
		}
		consider(r, pv, dv)
	}
	if !have {
		return false, 1, 0, nil
	}
	return rej, p, dStat, nil
}

func eRuns(inv *evidence.InvEvidence) int { return len(inv.Presence) }

func storeName(store bool) string {
	if store {
		return "store"
	}
	return "load"
}

// blockLabel returns block b's label in k, or B<b> when k is unknown.
func blockLabel(k *isa.Kernel, b int) string {
	if k != nil {
		return k.BlockLabel(b)
	}
	return fmt.Sprintf("B%d", b)
}

func pairEnd(k *isa.Kernel, b int) string {
	switch b {
	case adcfg.Start:
		return "START"
	case adcfg.End:
		return "END"
	default:
		return blockLabel(k, b)
	}
}

// memAnnotation returns the source form of the memIdx-th memory
// instruction of block in k, or "" when k is unknown or has no such
// instruction.
func memAnnotation(k *isa.Kernel, block, memIdx int) string {
	if k == nil || block < 0 || block >= len(k.Blocks) {
		return ""
	}
	n := 0
	for _, in := range k.Blocks[block].Code {
		if in.IsMem() {
			if n == memIdx {
				return in.String()
			}
			n++
		}
	}
	return ""
}
