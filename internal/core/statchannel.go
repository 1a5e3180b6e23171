// The statistical analysis path: round-based recording feeding the
// streaming accumulators of internal/evidence (and, in EvidenceBoth mode,
// the diff channel's merged evidence as well), with the sequential-testing
// controller checking the leak signature between rounds and cancelling
// the remaining run budget once it stabilizes.
//
// Determinism matches the diff path's contract: the full budget's inputs
// and per-run seeds are drawn sequentially up front — in exactly the
// order the diff path draws them — and every chunk streams through an
// ordered sink, so for a given seed the recorded run prefix is identical
// whatever the worker count, and an early-stopped EvidenceBoth detection
// analyzes a prefix of precisely the runs the fixed-budget diff detection
// would have recorded.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/isa"
	"owl/internal/obs"
	"owl/internal/trace"
)

// analyzeClassStat is analyzeClass for EvidenceTVLA / EvidenceBoth.
func (d *Detector) analyzeClassStat(ctx context.Context, p cuda.Program, cls InputClass, gen cuda.InputGen, leaks *leakSet) error {
	report := leaks.report
	cfg := d.opts.Evidence
	engine := evidence.NewEngine(cfg.engineConfig())
	ctrl := evidence.NewController(engine, cfg.stopPolicy())
	var eFix, eRnd *Evidence
	if cfg.diffEnabled() {
		eFix, eRnd = NewEvidence(), NewEvidence()
	}

	// Draw the whole budget up front, in the diff path's order: the
	// generator RNG seed first, then the fixed-regime seeds, then the
	// random-regime inputs and seeds.
	genRNG := rand.New(rand.NewSource(d.rng.Int63()))
	fixedReqs := make([]RunRequest, d.opts.FixedRuns)
	for i := range fixedReqs {
		fixedReqs[i] = RunRequest{Index: i, Input: cls.Rep, Seed: d.rng.Int63()}
	}
	randomReqs := make([]RunRequest, d.opts.RandomRuns)
	for i := range randomReqs {
		randomReqs[i] = RunRequest{Index: i, Input: gen(genRNG), Seed: d.rng.Int63()}
	}

	var mergeTime time.Duration
	// recordChunk streams one chunk of a regime through the runner into
	// the accumulators. Request indexes are rebased so every chunk is a
	// self-contained batch for the Runner contract; run continuity lives
	// in the engine and the merged evidence, not the sink.
	recordChunk := func(ctx context.Context, reqs []RunRequest, r evidence.Regime, ev *Evidence) error {
		if len(reqs) == 0 {
			return nil
		}
		chunk := make([]RunRequest, len(reqs))
		for i, req := range reqs {
			req.Index = i
			chunk[i] = req
		}
		start := engine.Runs(r)
		sink := newOrderedSink(0, func(_ int, t *trace.ProgramTrace) error {
			t0 := time.Now()
			engine.Observe(r, t)
			if ev != nil {
				ev.AddRun(t)
			}
			mergeTime += time.Since(t0)
			trace.Release(t)
			obs.Counter(ctx, "evidence_runs", float64(engine.Runs(evidence.Fixed)+engine.Runs(evidence.Random)))
			d.trackRAM(ctx, report)
			return nil
		})
		if err := d.runner.RecordStream(ctx, p, chunk, d.recordRun, d.countingSink(sink.Sink)); err != nil {
			return err
		}
		if merged := engine.Runs(r) - start; merged != len(chunk) {
			return fmt.Errorf("core: runner delivered %d traces for %d requests", merged, len(chunk))
		}
		return nil
	}

	d.setPhase(PhaseRecord)
	rctx, rsp := obs.Start(ctx, "phase.record")
	// Live telemetry wants per-round samples, so an OnEvidence hook (or an
	// attached recorder, for the counter feed) keeps round-sized chunks
	// even without early stopping. Chunking never changes run order or
	// results — only how often the engine is sampled between rounds.
	telemetry := d.opts.OnEvidence != nil || obs.FromContext(ctx) != nil
	step := ctrl.Policy().CheckEvery
	if !cfg.EarlyStop.Enabled && !telemetry {
		step = max(d.opts.FixedRuns, d.opts.RandomRuns)
	}
	fixedUsed, randomUsed := 0, 0
	earlyStopped := false
	round := 0
	for fixedUsed < d.opts.FixedRuns || randomUsed < d.opts.RandomRuns {
		fstep := min(step, d.opts.FixedRuns-fixedUsed)
		if fstep > 0 {
			fctx, fsp := obs.Start(rctx, "record.fixed")
			fsp.SetInt("runs", int64(fstep))
			err := recordChunk(fctx, fixedReqs[fixedUsed:fixedUsed+fstep], evidence.Fixed, eFix)
			fsp.End()
			if err != nil {
				rsp.End()
				return err
			}
			fixedUsed += fstep
		}
		rstep := min(step, d.opts.RandomRuns-randomUsed)
		if rstep > 0 {
			gctx, gsp := obs.Start(rctx, "record.random")
			gsp.SetInt("runs", int64(rstep))
			err := recordChunk(gctx, randomReqs[randomUsed:randomUsed+rstep], evidence.Random, eRnd)
			gsp.End()
			if err != nil {
				rsp.End()
				return err
			}
			randomUsed += rstep
		}
		round++
		more := fixedUsed < d.opts.FixedRuns || randomUsed < d.opts.RandomRuns
		if cfg.EarlyStop.Enabled || telemetry {
			// One site evaluation per round feeds both the stop decision
			// and the telemetry sample.
			traj := engine.Trajectory()
			if cfg.EarlyStop.Enabled && ctrl.CheckTrajectory(traj) && more {
				earlyStopped = true
			}
			obs.Counter(rctx, "evidence_sites", float64(traj.Sites))
			obs.Counter(rctx, "evidence_leak_sites", float64(traj.LeakSites))
			obs.Counter(rctx, "evidence_max_t", traj.MaxAbsT)
			obs.Counter(rctx, "evidence_stable_checks", float64(ctrl.Stable()))
			if d.opts.OnEvidence != nil {
				d.opts.OnEvidence(EvidenceSample{
					Round:        round,
					Runs:         fixedUsed + randomUsed,
					Sites:        traj.Sites,
					LeakSites:    traj.LeakSites,
					MaxAbsT:      traj.MaxAbsT,
					StableChecks: ctrl.Stable(),
					EarlyStopped: earlyStopped,
				})
			}
			if earlyStopped {
				break
			}
		}
	}
	rsp.SetInt("runs_used", int64(fixedUsed+randomUsed))
	rsp.End()

	report.Stats.EvidenceTraces += fixedUsed + randomUsed
	report.Stats.EvidenceTime += mergeTime
	report.EvidenceMode = string(cfg.Mode)
	if len(cfg.Channels) > 0 {
		report.Channels = cfg.Channels
	}
	report.RunsBudget += d.opts.FixedRuns + d.opts.RandomRuns
	report.RunsUsed += fixedUsed + randomUsed
	if earlyStopped {
		report.EarlyStopped = true
	}

	d.setPhase(PhaseAnalyze)
	t0 := time.Now()
	_, tsp := obs.Start(ctx, "phase.analyze")
	if cfg.diffEnabled() {
		if err := d.leakageTests(eFix, eRnd, leaks); err != nil {
			tsp.End()
			return err
		}
	}
	d.applyVerdicts(engine.Verdicts(), fixedUsed+randomUsed, leaks)
	tsp.End()
	report.Stats.TestTime += time.Since(t0)
	d.trackRAM(ctx, report)
	return nil
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
