// The statistical channel's side of the analysis phase: the per-round
// check that feeds early stop and the live telemetry, and the mapping of
// the engine's verdicts onto the report.
// The recording loop itself is analyzeClass, shared with the diff
// channel.
package core

import (
	"context"
	"fmt"

	"owl/internal/evidence"
	"owl/internal/isa"
	"owl/internal/obs"
	"owl/internal/trace"
)

// stopState is the early-stop state of one class's round loop: the leak
// signature of the previous check, whether there was one, and how many
// consecutive checks have seen it unchanged.
type stopState struct {
	sig    string
	primed bool
	stable int
}

// check folds one check's leak signature into s, given the runs recorded
// per regime, and reports whether the signature has been stable for
// StableChecks consecutive checks. A disabled policy never stops and
// leaves s as it is; below MinRuns runs per regime, verdicts are too
// noisy to trust, so s is left as it is too. The first counted check
// only primes s.
func (s *stopState) check(p EarlyStopPolicy, sig string, fixedRuns, randomRuns int) bool {
	if !p.Enabled || fixedRuns < p.MinRuns || randomRuns < p.MinRuns {
		return false
	}
	if s.primed && sig == s.sig {
		s.stable++
	} else {
		s.stable = 0
	}
	s.sig, s.primed = sig, true
	return s.stable >= p.StableChecks
}

// checkRound evaluates the statistical channel after recording round
// `round` of a class: one site evaluation feeds both the early-stop
// decision and the telemetry sample. The check runs after the last round
// too, so its sample reports the final count, but the class stops early
// only while budget remains.
func (d *Detector) checkRound(ctx context.Context, engine *evidence.Engine, st *stopState, round int, fixed, random *classRegime) bool {
	traj := engine.Trajectory()
	stop := st.check(d.opts.Evidence.EarlyStop, traj.Signature, fixed.used, random.used) && remaining(fixed, random)
	obs.Counter(ctx, "evidence_sites", float64(traj.Sites))
	obs.Counter(ctx, "evidence_leak_sites", float64(traj.LeakSites))
	obs.Counter(ctx, "evidence_max_t", traj.MaxAbsT)
	obs.Counter(ctx, "evidence_stable_checks", float64(st.stable))
	if d.opts.OnEvidence != nil {
		d.opts.OnEvidence(EvidenceSample{
			Round:        round,
			Runs:         fixed.used + random.used,
			Sites:        traj.Sites,
			LeakSites:    traj.LeakSites,
			MaxAbsT:      traj.MaxAbsT,
			StableChecks: st.stable,
			EarlyStopped: stop,
		})
	}
	return stop
}

// applyVerdicts folds the statistical channel's verdicts into the report:
// leaks already located by the diff channel are annotated with
// t/MI/confidence, leaking verdicts with no diff counterpart become leaks
// of their own, and every statistical leak carries the run count that
// produced it.
func (d *Detector) applyVerdicts(verdicts []evidence.Verdict, runsUsed int, leaks *leakSet) {
	for _, v := range verdicts {
		l := d.leakFromVerdict(v, runsUsed)
		if existing := leaks.find(l); existing != nil {
			// Annotate whichever channel found it first; keep the stronger
			// |t| when both channels' verdicts collapse to one location.
			if existing.Confidence < v.Confidence || existing.TStat == 0 {
				existing.TStat = v.TStat
				existing.Confidence = v.Confidence
				existing.RunsUsed = runsUsed
			}
			if v.MI > existing.MI {
				existing.MI = v.MI
			}
			continue
		}
		if v.Leak {
			leaks.add(l)
		}
	}
}

// leakFromVerdict maps one statistical verdict to the report's leak
// model. P carries 1-confidence so the existing smallest-p ranking and
// screening order statistical leaks exactly like diff leaks.
func (d *Detector) leakFromVerdict(v evidence.Verdict, runsUsed int) Leak {
	cfg := d.opts.Evidence
	k := d.KernelDef(v.Kernel)
	blockLabel := func(b int) string {
		if k != nil {
			return k.BlockLabel(b)
		}
		return fmt.Sprintf("B%d", b)
	}
	l := Leak{
		StackID:    v.Stack,
		Kernel:     v.Kernel,
		TStat:      v.TStat,
		MI:         v.MI,
		Confidence: v.Confidence,
		RunsUsed:   runsUsed,
		P:          1 - v.Confidence,
	}
	switch v.Kind {
	case evidence.PresenceSite:
		l.Kind = KernelLeak
		l.Detail = fmt.Sprintf("TVLA |t|=%.2f > %.1f (invocation presence depends on the input)", abs(v.TStat), cfg.TVLAThreshold)
	case evidence.PairSite:
		l.Kind = ControlFlowLeak
		l.Block = v.Block
		l.BlockLabel = blockLabel(v.Block)
		l.Pair = v.Pair
		l.Detail = fmt.Sprintf("TVLA |t|=%.2f > %.1f on transition (%s -> %s)",
			abs(v.TStat), cfg.TVLAThreshold, pairEnd(v.Pair.Src, blockLabel), pairEnd(v.Pair.Dst, blockLabel))
	case evidence.MemSite:
		l.Kind = DataFlowLeak
		l.Block = v.Mem.Block
		l.BlockLabel = blockLabel(v.Mem.Block)
		l.Visit = v.Mem.Visit
		l.MemIndex = v.Mem.Mem
		l.Where = memAnnotation(k, v.Mem.Block, v.Mem.Mem)
		l.Detail = fmt.Sprintf("TVLA |t|=%.2f > %.1f (%s), MI=%.2f bits", abs(v.TStat), cfg.TVLAThreshold, v.Feature, v.MI)
	case evidence.CostSite:
		l.Kind = CostLeak
		l.Block = v.Cost.Block
		l.BlockLabel = blockLabel(v.Cost.Block)
		l.Instr = v.Cost.Instr
		l.Metric = v.Cost.Metric.String()
		l.Where = costAnnotation(k, v.Cost)
		l.Detail = fmt.Sprintf("TVLA |t|=%.2f > %.1f (%s: per-event cost differs by regime), MI=%.2f bits",
			abs(v.TStat), cfg.TVLAThreshold, v.Feature, v.MI)
	}
	return l
}

// costAnnotation resolves a cost site's instruction to its source form.
// Bank and coalesce sites index the block's memory instructions (the
// A-DCFG's addressing); power sites index the block's code directly.
func costAnnotation(k *isa.Kernel, c evidence.CostKey) string {
	if c.Metric == trace.CostPower {
		if k == nil || c.Block < 0 || c.Block >= len(k.Blocks) {
			return ""
		}
		code := k.Blocks[c.Block].Code
		if c.Instr < 0 || c.Instr >= len(code) {
			return ""
		}
		return code[c.Instr].String()
	}
	return memAnnotation(k, c.Block, c.Instr)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
