// Package evidence is the statistical evidence channel beside the
// set-difference detector: streaming per-site accumulators (Welford
// mean/variance feeding Welch's t, capped-histogram mutual-information
// estimates) that attach to the trace-sink path at O(sites) memory, a
// confidence-ranked verdict model, and a per-round trajectory whose leak
// signature the detector watches to stop recording once the set of
// leaking code locations has stabilized.
//
// The engine observes traces run by run — each trace labelled with its
// input regime (fixed or random) — and never retains trace references, so
// it composes with the pooling/release discipline of the streaming
// pipeline. Kernel invocations align across runs by (stack identity,
// occurrence index within the run): unlike the Myers alignment of the
// merge channel this needs no materialized base sequence, and for the
// deterministic launch sequences the detector records the two alignments
// agree.
//
// Determinism: observations must arrive in run order (the reorder window
// of the streaming pipeline guarantees this for any worker count), and
// per-histogram addresses are folded in sorted order, so every
// accumulator — and therefore every verdict — is reproducible bit for bit
// across worker counts and processes.
package evidence

import (
	"fmt"
	"sort"

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
// weighted by access counts.
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
	w  [2]stats.Welford
	mi *stats.MIEstimator
}

// invAcc holds every per-site accumulator of one aligned invocation.
type invAcc struct {
	id      invID
	kernel  string
	present [2]int

	pairs map[int]map[adcfg.PairKey]*pairAcc
	mems  map[MemKey]*memAcc
	costs map[CostKey]*costAcc

	// sorted site orders, rebuilt lazily for deterministic verdicts
	dirty     bool
	pairOrder []pairRef
	memOrder  []MemKey
	costOrder []CostKey
}

type pairRef struct {
	block int
	pair  adcfg.PairKey
}

// Engine is the streaming statistical accumulator set. Not safe for
// concurrent use: the ordered sink serializes observations, which is also
// what makes them deterministic.
type Engine struct {
	cfg  Config
	runs [2]int
	invs []*invAcc
	idx  map[invID]int

	// scratch reused across Observe calls
	occ map[string]int
}

// NewEngine builds an engine with cfg.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, idx: make(map[invID]int), occ: make(map[string]int)}
}

// Observe folds one run's trace into the accumulators under regime r. The
// trace is read, never retained: callers may release it immediately
// after.
func (e *Engine) Observe(r Regime, t *trace.ProgramTrace) {
	runIdx := e.runs[r]
	clear(e.occ)
	for _, ti := range t.Invocations {
		occ := e.occ[ti.StackID]
		e.occ[ti.StackID] = occ + 1
		id := invID{stack: ti.StackID, occ: occ}
		i, ok := e.idx[id]
		if !ok {
			i = len(e.invs)
			e.idx[id] = i
			e.invs = append(e.invs, &invAcc{
				id:     id,
				kernel: ti.Kernel,
				pairs:  make(map[int]map[adcfg.PairKey]*pairAcc),
				mems:   make(map[MemKey]*memAcc),
				costs:  make(map[CostKey]*costAcc),
			})
		}
		e.observeInvocation(e.invs[i], r, runIdx, ti)
	}
	e.runs[r]++
}

// observeInvocation folds one invocation's A-DCFG in.
func (e *Engine) observeInvocation(a *invAcc, r Regime, runIdx int, ti *trace.Invocation) {
	a.present[r]++
	for block, node := range ti.Graph.Nodes {
		for pk, c := range node.Pairs {
			pairs := a.pairs[block]
			if pairs == nil {
				pairs = make(map[adcfg.PairKey]*pairAcc)
				a.pairs[block] = pairs
			}
			p := pairs[pk]
			if p == nil {
				p = &pairAcc{}
				pairs[pk] = p
				a.dirty = true
			}
			w := &p.w[r]
			w.AddZeros(runIdx - int(w.Count))
			w.Add(float64(c))
		}
		for j, v := range node.Visits {
			for mi, h := range v.Mems {
				if h == nil || len(h.Cells) == 0 {
					continue
				}
				key := MemKey{Block: block, Visit: j, Mem: mi}
				m := a.mems[key]
				if m == nil {
					m = &memAcc{mi: stats.NewMIEstimator(e.cfg.MIBins)}
					a.mems[key] = m
					a.dirty = true
				}
				// The MI estimator takes the cells in ascending address
				// order, which makes its rebin trigger, and so the
				// estimate, deterministic. The mean and spread are the
				// diff channel's per-run summary.
				for _, c := range h.Cells {
					m.mi.Observe(int(r), float64(c.Addr), float64(c.Count))
				}
				mean, spread := adcfg.Summary(h.Cells)
				m.mean[r].Add(mean)
				m.spread[r].Add(spread)
			}
		}
	}
	for _, s := range ti.Cost {
		if s.Events <= 0 {
			continue
		}
		key := CostKey{Metric: s.Metric, Block: s.Block, Instr: s.Instr}
		c := a.costs[key]
		if c == nil {
			c = &costAcc{mi: stats.NewMIEstimator(e.cfg.MIBins)}
			a.costs[key] = c
			a.dirty = true
		}
		v := float64(s.Total) / float64(s.Events)
		w := &c.w[r]
		w.AddZeros(runIdx - int(w.Count))
		w.Add(v)
		c.mi.Observe(int(r), v, 1)
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
		a.sortSites()
		base := Verdict{Stack: a.id.stack, Kernel: a.kernel, Occ: a.id.occ}

		// Presence: Bernoulli per regime over all runs of that regime.
		if e.runs[Fixed] >= 2 && e.runs[Random] >= 2 {
			pres := base
			pres.Kind = PresenceSite
			if t, ok := e.tOf(bernoulli(a.present[Fixed], e.runs[Fixed]), bernoulli(a.present[Random], e.runs[Random])); ok {
				emit(pres, t, "presence")
			}
		}

		for _, pr := range a.pairOrder {
			p := a.pairs[pr.block][pr.pair]
			t, ok := e.tOf(padded(p.w[Fixed], e.runs[Fixed]), padded(p.w[Random], e.runs[Random]))
			if !ok {
				continue
			}
			v := base
			v.Kind = PairSite
			v.Block = pr.block
			v.Pair = pr.pair
			emit(v, t, "pair")
		}

		for _, key := range a.memOrder {
			m := a.mems[key]
			// The run is the unit: a regime with < 2 executing runs has no
			// distribution to test — regime-dependent execution itself is
			// the presence/pair channel's verdict.
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
			v.Mem = key
			if withMI {
				v.MI = m.mi.Bits()
			}
			emit(v, t, feature)
		}

		for _, key := range a.costOrder {
			c := a.costs[key]
			t, ok := e.tOf(padded(c.w[Fixed], e.runs[Fixed]), padded(c.w[Random], e.runs[Random]))
			if !ok {
				continue
			}
			v := base
			v.Kind = CostSite
			v.Cost = key
			v.Block = key.Block
			if withMI {
				v.MI = c.mi.Bits()
			}
			emit(v, t, "cost "+key.Metric.String())
		}
	}
	return out
}

// sortSites rebuilds the deterministic site orders if new sites appeared.
func (a *invAcc) sortSites() {
	if !a.dirty && a.pairOrder != nil {
		return
	}
	a.pairOrder = a.pairOrder[:0]
	for block, pairs := range a.pairs {
		for pk := range pairs {
			a.pairOrder = append(a.pairOrder, pairRef{block: block, pair: pk})
		}
	}
	sort.Slice(a.pairOrder, func(i, j int) bool {
		x, y := a.pairOrder[i], a.pairOrder[j]
		if x.block != y.block {
			return x.block < y.block
		}
		if x.pair.Src != y.pair.Src {
			return x.pair.Src < y.pair.Src
		}
		return x.pair.Dst < y.pair.Dst
	})
	a.memOrder = a.memOrder[:0]
	for key := range a.mems {
		a.memOrder = append(a.memOrder, key)
	}
	sort.Slice(a.memOrder, func(i, j int) bool {
		x, y := a.memOrder[i], a.memOrder[j]
		if x.Block != y.Block {
			return x.Block < y.Block
		}
		if x.Visit != y.Visit {
			return x.Visit < y.Visit
		}
		return x.Mem < y.Mem
	})
	a.costOrder = a.costOrder[:0]
	for key := range a.costs {
		a.costOrder = append(a.costOrder, key)
	}
	sort.Slice(a.costOrder, func(i, j int) bool {
		x, y := a.costOrder[i], a.costOrder[j]
		if x.Metric != y.Metric {
			return x.Metric < y.Metric
		}
		if x.Block != y.Block {
			return x.Block < y.Block
		}
		return x.Instr < y.Instr
	})
	a.dirty = false
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
