package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/core"
	"owl/internal/evidence"
	"owl/internal/experiments"
	"owl/internal/myers"
	"owl/internal/stats"
	"owl/internal/trace"
)

// TestCountedSamplesMatchPerRun checks the diff evidence's counted
// samples against per-run samples. For every FullSuite target, with the
// cost channel off and on, and with the diff evidence alone and beside
// the statistical engine, it merges the fixed input's trace as counted
// copies (evidence.MergeN), a differing run and more copies into E_fix,
// and random-input runs into E_rnd. A reference merge that keeps one
// value per run merges the same runs one at a time.
//
// Every counted sample (presence, pair counts, memory means and spreads)
// must be coalesced: each entry counts at least one run and differs by
// its bits from the entry before it. Expanded to one value per run, it
// must equal the reference's sample bit for bit. Through the detector,
// the (reject, p, D) of the KS test on the counted samples must equal
// stats.KSTest on the expanded ones, and the Welch ablation's must equal
// stats.WelchT on them.
func TestCountedSamplesMatchPerRun(t *testing.T) {
	targets, err := experiments.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := core.NewDetector(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	welchOpts := core.DefaultOptions()
	welchOpts.UseWelch = true
	welch, err := core.NewDetector(welchOpts)
	if err != nil {
		t.Fatal(err)
	}
	alpha := core.DefaultOptions().Confidence
	var tests, multi int
	for _, tg := range targets {
		for _, cost := range []bool{false, true} {
			opts := core.DefaultOptions()
			if cost {
				opts.Evidence = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
			}
			det, err := core.NewDetector(opts)
			if err != nil {
				t.Fatal(err)
			}
			record := func(input []byte) *trace.ProgramTrace {
				tr, err := det.RecordOnce(tg.Program, input)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			fixed := record(tg.Inputs[0])
			rng := rand.New(rand.NewSource(1))
			var random []*trace.ProgramTrace
			for range 5 {
				random = append(random, record(tg.Gen(rng)))
			}
			for _, stat := range []bool{false, true} {
				name := fmt.Sprintf("%s/cost=%v/engine=%v", tg.Program.Name(), cost, stat)
				var e *evidence.Engine
				if stat {
					e = evidence.NewEngine(evidence.Config{TThreshold: evidence.DefaultTThreshold, MIBins: evidence.DefaultMIBins})
				}
				// E_fix: 3 copies, one random run, 2 copies; its budget
				// is short by one, so a sample may outgrow it.
				eFix, eRnd := evidence.NewDiff(5), evidence.NewDiff(len(random))
				refFix, refRnd := &refDiff{}, &refDiff{}
				evidence.MergeN(evidence.Fixed, fixed, eFix, e, 3)
				evidence.Merge(evidence.Fixed, random[0], eFix, e)
				evidence.MergeN(evidence.Fixed, fixed, eFix, e, 2)
				for _, tr := range []*trace.ProgramTrace{fixed, fixed, fixed, random[0], fixed, fixed} {
					refFix.merge(tr)
				}
				for _, tr := range random {
					evidence.Merge(evidence.Random, tr, eRnd, e)
					refRnd.merge(tr)
				}
				for r, pair := range [2]struct {
					got  *evidence.Diff
					want *refDiff
				}{{eFix, refFix}, {eRnd, refRnd}} {
					multi += checkCounted(t, fmt.Sprintf("%s/regime=%d", name, r), pair.got, pair.want)
				}
				tests += checkRejects(t, name, ks, welch, alpha, eFix, eRnd)
			}
		}
	}
	if tests == 0 || multi == 0 {
		t.Fatalf("%d tests compared, %d entries counting several runs: the test is vacuous", tests, multi)
	}
}

// refDiff is the diff evidence as a reference merge builds it: one value
// per run in every sample, padded with a zero per run at a time.
type refDiff struct {
	runs int
	invs []*refInv
}

// refInv is one aligned invocation of a refDiff.
type refInv struct {
	stack          string
	presence       []float64
	pairs          map[refPair][]float64
	means, spreads map[evidence.MemKey][]float64
}

type refPair struct {
	block int
	pair  adcfg.PairKey
}

// merge merges t as the next run, aligning its invocations with the
// merged sequence by the Myers diff of their stack identities.
func (d *refDiff) merge(t *trace.ProgramTrace) {
	stacks := make([]string, len(d.invs))
	for i, inv := range d.invs {
		stacks[i] = inv.stack
	}
	at := make([]*refInv, len(t.Invocations))
	var merged []*refInv
	for _, op := range myers.Diff(stacks, t.StackSeq()) {
		switch op.Kind {
		case myers.Match:
			at[op.BIdx] = d.invs[op.AIdx]
			merged = append(merged, d.invs[op.AIdx])
		case myers.Delete:
			merged = append(merged, d.invs[op.AIdx])
		case myers.Insert:
			inv := &refInv{stack: t.Invocations[op.BIdx].StackID, pairs: map[refPair][]float64{},
				means: map[evidence.MemKey][]float64{}, spreads: map[evidence.MemKey][]float64{}}
			at[op.BIdx] = inv
			merged = append(merged, inv)
		}
	}
	d.invs = merged
	for i, ti := range t.Invocations {
		inv := at[i]
		inv.presence = append(pad(inv.presence, d.runs), 1)
		for block, node := range ti.Graph.Nodes {
			for pk, c := range node.Pairs {
				k := refPair{block, pk}
				inv.pairs[k] = append(pad(inv.pairs[k], d.runs), float64(c))
			}
			for j, v := range node.Visits {
				for mi, h := range v.Mems {
					if h == nil || len(h.Cells) == 0 {
						continue
					}
					k := evidence.MemKey{Block: block, Visit: j, Mem: mi}
					mean, spread := adcfg.Summary(h.Cells)
					inv.means[k] = append(inv.means[k], mean)
					inv.spreads[k] = append(inv.spreads[k], spread)
				}
			}
		}
	}
	d.runs++
	for _, inv := range d.invs {
		inv.presence = pad(inv.presence, d.runs)
		for k, xs := range inv.pairs {
			inv.pairs[k] = pad(xs, d.runs)
		}
	}
}

// pad extends xs with zeros to length n.
func pad(xs []float64, n int) []float64 {
	for len(xs) < n {
		xs = append(xs, 0)
	}
	return xs
}

// checkCounted compares every counted sample of got with the reference
// and returns how many entries count more than one run.
func checkCounted(t *testing.T, name string, got *evidence.Diff, want *refDiff) (multi int) {
	t.Helper()
	if got.Runs != want.runs || len(got.Invs) != len(want.invs) {
		t.Fatalf("%s: %d runs and %d invocations, reference %d and %d", name, got.Runs, len(got.Invs), want.runs, len(want.invs))
	}
	same := func(what string, c stats.Counted, xs []float64) {
		t.Helper()
		for i, e := range c.Counts {
			if e.N < 1 || i > 0 && math.Float64bits(e.Value) == math.Float64bits(c.Counts[i-1].Value) {
				t.Fatalf("%s: %s: entry %d of %v is not coalesced", name, what, i, c.Counts)
			}
			if e.N > 1 {
				multi++
			}
		}
		runs := c.AppendTo(nil)
		if c.N() != len(runs) || !slices.Equal(bitsOf(runs), bitsOf(xs)) {
			t.Fatalf("%s: %s: counted sample %v (%d runs) expands to %v, reference %v", name, what, c.Counts, c.N(), runs, xs)
		}
	}
	for i, inv := range got.Invs {
		ref := want.invs[i]
		if inv.StackID != ref.stack {
			t.Fatalf("%s: invocation %d is %s, reference %s", name, i, inv.StackID, ref.stack)
		}
		same(inv.StackID+" presence", inv.Presence, ref.presence)
		pairs, mems := 0, 0
		for b, blk := range inv.Sites {
			for _, p := range blk.Pairs {
				pairs++
				same(fmt.Sprintf("%s block %d pair %v", inv.StackID, b, p.Pair), p.Rec, ref.pairs[refPair{b, p.Pair}])
			}
			for j, visit := range blk.Mems {
				for m, f := range visit {
					if f == nil || f.Runs() == 0 {
						continue
					}
					mems++
					k := evidence.MemKey{Block: b, Visit: j, Mem: m}
					same(fmt.Sprintf("%s mem %v means", inv.StackID, k), f.Means, ref.means[k])
					same(fmt.Sprintf("%s mem %v spreads", inv.StackID, k), f.Spreads, ref.spreads[k])
				}
			}
		}
		if pairs != len(ref.pairs) || mems != len(ref.means) {
			t.Fatalf("%s: %s has %d pair and %d memory samples, reference %d and %d", name, inv.StackID, pairs, mems, len(ref.pairs), len(ref.means))
		}
	}
	return multi
}

// checkRejects runs the per-run tests of every aligned invocation of
// eFix and eRnd through the KS and the Welch detectors, against the
// reference tests over the expanded samples, and returns how many it
// compared.
func checkRejects(t *testing.T, name string, ks, welch *core.Detector, alpha float64, eFix, eRnd *evidence.Diff) (tests int) {
	t.Helper()
	compare := func(what string, x stats.Counted, xRuns int, y stats.Counted, yRuns int) {
		t.Helper()
		xz, yz := xRuns-x.N(), yRuns-y.N()
		if x.N()+xz == 0 || y.N()+yz == 0 {
			return
		}
		xs := append(x.AppendTo(nil), make([]float64, xz)...)
		ys := append(y.AppendTo(nil), make([]float64, yz)...)
		tests++
		rej, p, d, err := ks.Reject(&x, xz, &y, yz)
		want, werr := stats.KSTest(stats.NewSample(xs), stats.NewSample(ys), alpha)
		if (err != nil) != (werr != nil) || err == nil && (rej != want.Reject ||
			math.Float64bits(p) != math.Float64bits(want.P) || math.Float64bits(d) != math.Float64bits(want.D)) {
			t.Fatalf("%s: %s: KS on counted samples (%v, %v, %v, %v), on runs %v, %v", name, what, rej, p, d, err, want, werr)
		}
		rej, _, tt, err := welch.Reject(&x, xz, &y, yz)
		wantT, werr := stats.WelchT(stats.NewSample(xs), stats.NewSample(ys))
		if (err != nil) != (werr != nil) || err == nil && (rej != wantT.Reject || math.Float64bits(tt) != math.Float64bits(wantT.T)) {
			t.Fatalf("%s: %s: Welch on counted samples (%v, %v, %v), on runs %v, %v", name, what, rej, tt, err, wantT, werr)
		}
	}
	for _, op := range myers.Diff(eFix.Stacks(), eRnd.Stacks()) {
		if op.Kind != myers.Match {
			continue
		}
		fi, ri := eFix.Invs[op.AIdx], eRnd.Invs[op.BIdx]
		fRuns, rRuns := fi.Presence.N(), ri.Presence.N()
		compare(fi.StackID+" presence", fi.Presence, fRuns, ri.Presence, rRuns)
		for b, blk := range fi.Sites {
			rb := ri.Sites.Block(b)
			for _, p := range blk.Pairs {
				var y stats.Counted
				if i, ok := slices.BinarySearchFunc(rb.Pairs, p.Pair, func(r evidence.PairRecord[stats.Counted], k adcfg.PairKey) int { return r.Pair.Compare(k) }); ok {
					y = rb.Pairs[i].Rec
				}
				compare(fmt.Sprintf("%s block %d pair %v", fi.StackID, b, p.Pair), p.Rec, fRuns, y, rRuns)
			}
			for j, visit := range blk.Mems {
				for m, ff := range visit {
					rf := ri.Sites.Mem(evidence.MemKey{Block: b, Visit: j, Mem: m})
					if ff == nil || rf == nil {
						continue
					}
					what := fmt.Sprintf("%s mem %d.%d.%d", fi.StackID, b, j, m)
					compare(what+" means", ff.Means, ff.Runs(), rf.Means, rf.Runs())
					compare(what+" spreads", ff.Spreads, ff.Runs(), rf.Spreads, rf.Runs())
				}
			}
		}
	}
	return tests
}

// bitsOf returns each value's bits.
func bitsOf(xs []float64) []uint64 {
	b := make([]uint64, len(xs))
	for i, x := range xs {
		b[i] = math.Float64bits(x)
	}
	return b
}
