// Package evidence holds the evidence the detector merges its runs into
// and the statistical channel beside the set-difference detector. The
// diff channel's evidence (Diff: E_fix or E_rnd, §VII-A) keeps per-run
// feature samples and merged address histograms for the distribution
// tests. The statistical engine (Engine) keeps streaming per-site
// accumulators (Welford mean/variance feeding Welch's t, capped-histogram
// mutual-information estimates) at O(sites) memory, a confidence-ranked
// verdict model, and a per-round trajectory whose leak signature the
// detector watches to stop recording once the set of leaking code
// locations has stabilized.
//
// A run merges into whichever consumers are on with one walk over each
// invocation's graph (Merge). Each consumer aligns invocations its own
// way: the diff channel with the Myers algorithm over the merged
// sequence, the engine by (stack identity, occurrence index within the
// run), which needs no materialized base sequence. For the deterministic
// launch sequences the detector records the two alignments agree; a
// host-gated launch can make them differ. Within an invocation, both find
// each site by its index in the run graph (Sites), so no site key is
// hashed and sites are read in order without sorting. Neither consumer
// retains trace references, so both compose with the pooling/release
// discipline of the streaming pipeline.
//
// Runs that recorded the same trace merge as counted copies of it in one
// walk (MergeN): what a run adds per histogram cell is added once,
// scaled by the count, and what it adds as a per-run sample or Welford
// update is added once per copy. Weights are integers below 2^53, so
// the scaled sums are exact, and the result is bit-identical to merging
// each copy in turn.
//
// Determinism: observations must arrive in run order (the reorder window
// of the streaming pipeline guarantees this for any worker count), and
// per-histogram addresses are folded in sorted order, so every
// accumulator — and therefore every verdict — is reproducible bit for bit
// across worker counts and processes.
package evidence

import (
	"cmp"
	"fmt"
	"slices"

	"owl/internal/adcfg"
	"owl/internal/stats"
	"owl/internal/trace"
)

// Regime labels the input class a run was recorded under.
type Regime int

const (
	Fixed  Regime = 0
	Random Regime = 1
)

// DefaultTThreshold is the TVLA rejection threshold |t| > 4.5.
const DefaultTThreshold = 4.5

// DefaultMIBins is the histogram cap of the per-site MI estimators.
const DefaultMIBins = 64

// Config parameterizes the engine. Both values are taken as given; the
// detector's evidence options fill the defaults above.
type Config struct {
	// TThreshold is the |t| rejection threshold.
	TThreshold float64
	// MIBins caps the per-site MI histograms.
	MIBins int
}

// MemKey identifies one memory-instruction occurrence inside an
// invocation: the Mem-th memory instruction during the Visit-th visit of
// a block.
type MemKey struct {
	Block, Visit, Mem int
}

// SiteKind classifies a statistical site.
type SiteKind int

const (
	// PresenceSite tests whether the invocation occurs at all — regime-
	// dependent presence is a kernel-level control-flow leak.
	PresenceSite SiteKind = iota
	// PairSite tests one (entered-from, left-towards) transition count of
	// a basic block — the control-flow transition-matrix entries.
	PairSite
	// MemSite tests the address distribution of one memory instruction —
	// per-run mean offset, offset spread, and address MI.
	MemSite
	// CostSite tests the per-run mean of one microarchitectural cost
	// observable (bank-conflict degree, coalescing transactions, or
	// power proxy) at one (block, instruction) site — the cost channel.
	CostSite
)

func (k SiteKind) String() string {
	switch k {
	case PresenceSite:
		return "presence"
	case PairSite:
		return "pair"
	case MemSite:
		return "mem"
	case CostSite:
		return "cost"
	}
	return fmt.Sprintf("SiteKind(%d)", int(k))
}

// CostKey identifies one cost-channel site inside an invocation.
type CostKey struct {
	Metric trace.CostMetric
	Block  int
	Instr  int
}

// Verdict is the statistical conclusion for one site.
type Verdict struct {
	Kind   SiteKind
	Stack  string // invocation stack identity
	Kernel string
	Occ    int // occurrence index of the invocation within a run

	Block int           // PairSite, MemSite
	Pair  adcfg.PairKey // PairSite
	Mem   MemKey        // MemSite
	Cost  CostKey       // CostSite

	// TStat is the strongest Welch's t across the site's features, MI the
	// estimated regime↔address mutual information in bits (MemSite only),
	// Confidence the two-sided 1-p of TStat under the normal
	// approximation.
	TStat      float64
	MI         float64
	Confidence float64
	// Feature names the feature that produced TStat ("presence",
	// "pair", "mem mean", "mem spread").
	Feature string
	// Leak reports |TStat| > threshold.
	Leak bool
}

// SiteKey renders the screened code-location identity: occurrence and
// visit indices collapse, exactly as the report's screening step
// collapses loop iterations of one instruction to one entry. The leak
// signature is built from site keys rather than per-visit keys — as runs
// accumulate, Welch's t crosses the threshold at ever-later loop visits
// of an already-flagged instruction, and a visit-level signature would
// keep growing (and early stop would never fire) long after the set of
// leaking code locations has stabilized.
func (v Verdict) SiteKey() string {
	switch v.Kind {
	case PresenceSite:
		return fmt.Sprintf("presence|%s", v.Stack)
	case PairSite:
		return fmt.Sprintf("pair|%s|%d|%d>%d", v.Stack, v.Block, v.Pair.Src, v.Pair.Dst)
	case CostSite:
		return fmt.Sprintf("cost|%s|%s|%d.%d", v.Stack, v.Cost.Metric, v.Cost.Block, v.Cost.Instr)
	default:
		return fmt.Sprintf("mem|%s|%d.%d", v.Stack, v.Mem.Block, v.Mem.Mem)
	}
}

// invID aligns invocations across runs: the occ-th occurrence of a stack
// identity within one run matches the occ-th occurrence in every other.
type invID struct {
	stack string
	occ   int
}

// pairAcc accumulates one transition-count site. Zero padding for runs
// where the pair (or the whole invocation) was absent is lazy: counts
// catch up with AddZeros on the next observation and at verdict time.
type pairAcc struct {
	w [2]stats.Welford
}

// memAcc accumulates one memory-instruction site. Mean/spread fold one
// observation per run in which the instruction executed (matching the
// diff channel's MemFeature: accesses within a run are correlated, so the
// run is the unit); the MI estimator folds the full address histogram
// weighted by access counts. A site no run has reached has a nil mi.
type memAcc struct {
	mean   [2]stats.Welford
	spread [2]stats.Welford
	mi     *stats.MIEstimator
}

// costAcc accumulates one cost-channel site. The per-run observation is
// the site's mean cost per event (Total/Events) — the serialization
// degree, transaction count, or Hamming weight an attacker's
// timing/power probe integrates over the run. Padding is lazy like
// pairAcc: a run in which the site never executed contributes 0.
type costAcc struct {
	key CostKey
	w   [2]stats.Welford
	mi  *stats.MIEstimator
}

// invAcc holds every per-site accumulator of one aligned invocation.
type invAcc struct {
	id      invID
	kernel  string
	present [2]int

	sites Sites[pairAcc, memAcc]
	costs []costAcc // ascending by (Metric, Block, Instr)
}

// Engine is the streaming statistical accumulator set. Not safe for
// concurrent use: the ordered sink serializes observations, which is also
// what makes them deterministic.
type Engine struct {
	cfg  Config
	runs [2]int
	invs []*invAcc
	idx  map[invID]*invAcc

	// scratch reused across runs
	occ map[string]int
	at  []*invAcc
}

// NewEngine builds an engine with cfg.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, idx: make(map[invID]*invAcc), occ: make(map[string]int)}
}

// Observe folds one run's trace into the accumulators under regime r. The
// trace is read, never retained: callers may release it immediately
// after.
func (e *Engine) Observe(r Regime, t *trace.ProgramTrace) { Merge(r, t, nil, e) }

// align returns the accumulators of each of t's invocations, aligned by
// (stack identity, occurrence), adding those seen for the first time.
func (e *Engine) align(t *trace.ProgramTrace) []*invAcc {
	clear(e.occ)
	e.at = e.at[:0]
	for _, ti := range t.Invocations {
		occ := e.occ[ti.StackID]
		e.occ[ti.StackID] = occ + 1
		id := invID{stack: ti.StackID, occ: occ}
		a := e.idx[id]
		if a == nil {
			a = &invAcc{id: id, kernel: ti.Kernel}
			e.idx[id] = a
			e.invs = append(e.invs, a)
		}
		e.at = append(e.at, a)
	}
	return e.at
}

// observeCosts folds the cost sites of n runs in under regime r, each
// run recording sites, runIdx being the first run's index within the
// regime. Sites arrive in canonical (Metric, Block, Instr) order, so a
// cursor finds each in one step once the run's sites are known; a site
// the cursor misses is found by binary search, and a new one is inserted
// in order.
func (a *invAcc) observeCosts(r Regime, runIdx, n int, sites []trace.CostSite, bins int) {
	i := 0
	for _, s := range sites {
		if s.Events <= 0 {
			continue
		}
		key := CostKey{Metric: s.Metric, Block: s.Block, Instr: s.Instr}
		if i >= len(a.costs) || a.costs[i].key != key {
			var found bool
			i, found = slices.BinarySearchFunc(a.costs, key, func(c costAcc, k CostKey) int {
				return cmp.Or(cmp.Compare(c.key.Metric, k.Metric), cmp.Compare(c.key.Block, k.Block), cmp.Compare(c.key.Instr, k.Instr))
			})
			if !found {
				a.costs = slices.Insert(a.costs, i, costAcc{key: key, mi: stats.NewMIEstimator(bins)})
			}
		}
		c := &a.costs[i]
		v := float64(s.Total) / float64(s.Events)
		addRuns(&c.w[r], runIdx, n, v)
		c.mi.Observe(int(r), v, float64(n))
		i++
	}
}

// bernoulli returns the analytic Welford accumulator of k ones among n
// Bernoulli observations (sum of squared deviations = k(n-k)/n).
func bernoulli(k, n int) stats.Welford {
	if n == 0 {
		return stats.Welford{}
	}
	kf, nf := float64(k), float64(n)
	return stats.Welford{Count: nf, Mean: kf / nf, M2: kf * (nf - kf) / nf}
}

// padded returns w zero-padded to n observations.
func padded(w stats.Welford, n int) stats.Welford {
	w.AddZeros(n - int(w.Count))
	return w
}

// site evaluates one feature pair into (t, ok).
func (e *Engine) tOf(x, y stats.Welford) (float64, bool) {
	res, err := stats.WelchTWelford(x, y, e.cfg.TThreshold)
	if err != nil {
		return 0, false
	}
	return res.T, true
}

// Verdicts evaluates every site and returns the verdicts in a
// deterministic order: invocations in first-appearance order; per
// invocation the presence site, then pair sites sorted by (block, src,
// dst), then memory sites sorted by (block, visit, mem). Verdicts are
// ranked data, not state: calling Verdicts never perturbs the
// accumulators.
func (e *Engine) Verdicts() []Verdict { return e.verdicts(true) }

// verdicts is Verdicts, with the memory and cost sites' MI estimates only
// when withMI is set: a per-cell logarithm that the trajectory, which
// reads no MI, would throw away every round.
func (e *Engine) verdicts(withMI bool) []Verdict {
	var out []Verdict
	abs := func(t float64) float64 {
		if t < 0 {
			return -t
		}
		return t
	}
	emit := func(v Verdict, t float64, feature string) {
		v.TStat = t
		v.Feature = feature
		v.Confidence = stats.TConfidence(t)
		v.Leak = abs(t) > e.cfg.TThreshold
		out = append(out, v)
	}
	for _, a := range e.invs {
		base := Verdict{Stack: a.id.stack, Kernel: a.kernel, Occ: a.id.occ}

		// Presence: Bernoulli per regime over all runs of that regime.
		if e.runs[Fixed] >= 2 && e.runs[Random] >= 2 {
			pres := base
			pres.Kind = PresenceSite
			if t, ok := e.tOf(bernoulli(a.present[Fixed], e.runs[Fixed]), bernoulli(a.present[Random], e.runs[Random])); ok {
				emit(pres, t, "presence")
			}
		}

		for b, blk := range a.sites {
			for _, p := range blk.Pairs {
				t, ok := e.tOf(padded(p.Rec.w[Fixed], e.runs[Fixed]), padded(p.Rec.w[Random], e.runs[Random]))
				if !ok {
					continue
				}
				v := base
				v.Kind = PairSite
				v.Block = b
				v.Pair = p.Pair
				emit(v, t, "pair")
			}
		}

		for b, blk := range a.sites {
			for j, visit := range blk.Mems {
				for mi := range visit {
					m := &visit[mi]
					if m.mi == nil {
						continue
					}
					// The run is the unit: a regime with < 2 executing runs
					// has no distribution to test — regime-dependent
					// execution itself is the presence/pair channel's
					// verdict.
					tm, okM := e.tOf(m.mean[Fixed], m.mean[Random])
					ts, okS := e.tOf(m.spread[Fixed], m.spread[Random])
					if !okM && !okS {
						continue
					}
					t, feature := tm, "mem mean"
					if okS && (!okM || abs(ts) > abs(tm)) {
						t, feature = ts, "mem spread"
					}
					v := base
					v.Kind = MemSite
					v.Mem = MemKey{Block: b, Visit: j, Mem: mi}
					if withMI {
						v.MI = m.mi.Bits()
					}
					emit(v, t, feature)
				}
			}
		}

		for i := range a.costs {
			c := &a.costs[i]
			t, ok := e.tOf(padded(c.w[Fixed], e.runs[Fixed]), padded(c.w[Random], e.runs[Random]))
			if !ok {
				continue
			}
			v := base
			v.Kind = CostSite
			v.Cost = c.key
			v.Block = c.key.Block
			if withMI {
				v.MI = c.mi.Bits()
			}
			emit(v, t, "cost "+c.key.Metric.String())
		}
	}
	return out
}

// Trajectory is one snapshot of the engine's statistical state — the
// per-round sample the live-telemetry channel publishes while a
// detection converges: every evaluated site, the screened locations
// currently over threshold, the strongest |t| seen, and the canonical
// leak signature early stop watches.
type Trajectory struct {
	// Sites is the number of sites with enough data to evaluate.
	Sites int
	// LeakSites counts distinct screened code locations currently over
	// the leak threshold (the signature's line count).
	LeakSites int
	// MaxAbsT is the strongest |t| across all evaluated sites.
	MaxAbsT float64
	// Signature renders the leaking code locations as a canonical
	// string — the quantity early stop watches for stability. Locations are screened site keys (see Verdict.SiteKey):
	// verdicts for later visits or occurrences of an already-leaking
	// instruction do not change the signature.
	Signature string
}

// Trajectory evaluates every site's t statistic once and summarizes the
// result; it leaves out the MI estimates, which it does not read. Like
// Verdicts it is ranked data, not state: sampling never perturbs the
// accumulators.
func (e *Engine) Trajectory() Trajectory {
	var tr Trajectory
	var sig []byte
	seen := make(map[string]bool)
	for _, v := range e.verdicts(false) {
		tr.Sites++
		t := v.TStat
		if t < 0 {
			t = -t
		}
		if t > tr.MaxAbsT {
			tr.MaxAbsT = t
		}
		if !v.Leak {
			continue
		}
		k := v.SiteKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		tr.LeakSites++
		sig = append(sig, k...)
		sig = append(sig, '\n')
	}
	tr.Signature = string(sig)
	return tr
}
