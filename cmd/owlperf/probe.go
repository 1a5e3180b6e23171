package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/gpu"
)

// probe times the layers of one traced detection from outside the
// pipeline. It wraps the program under test, passing every call through,
// so it sees each traced Run's duration and instruction count, and its
// onProgress method, installed as Options.OnProgress, timestamps the
// phase transitions. It never sets OnEvidence or attaches an
// obs.Recorder: either would switch the statistical channel to
// round-sized recording and measure a different program.
type probe struct {
	cuda.Program

	mu    sync.Mutex
	phase string
	marks []phaseMark
	runs  []runRecord
}

type phaseMark struct {
	phase string
	at    time.Time
}

type runRecord struct {
	phase  string
	input  []byte
	dur    time.Duration
	instrs int64
}

func newProbe(p cuda.Program) *probe { return &probe{Program: p} }

// Run implements cuda.Program. It times the run by the CPU time of the
// thread it holds, so the other recording slot's turns on the one
// processor do not count.
func (p *probe) Run(ctx *cuda.Context, input []byte) error {
	runtime.LockOSThread()
	start := threadCPU()
	err := p.Program.Run(ctx, input)
	dur := threadCPU() - start
	runtime.UnlockOSThread()
	instrs := ctx.Stats().Instructions
	p.mu.Lock()
	p.runs = append(p.runs, runRecord{phase: p.phase, input: input, dur: dur, instrs: instrs})
	p.mu.Unlock()
	return err
}

// onProgress records phase transitions. The pipeline calls it after every
// recorded run as well, concurrently when recording is parallel.
func (p *probe) onProgress(pr core.Progress) {
	now := time.Now()
	p.mu.Lock()
	if pr.Phase != p.phase {
		p.phase = pr.Phase
		p.marks = append(p.marks, phaseMark{pr.Phase, now})
	}
	p.mu.Unlock()
}

// replay re-executes every recorded run untraced — a fresh context with
// no observer, as the interpreter runs outside detection — and returns
// the summed Run CPU time and instruction count. It runs after the timed
// detection, so it never slows what it measures.
func (p *probe) replay(dev gpu.Config) (time.Duration, int64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var total time.Duration
	var instrs int64
	for i, r := range p.runs {
		ctx, err := cuda.NewContext(dev, rand.New(rand.NewSource(int64(i+1))), nil)
		if err != nil {
			return 0, 0, err
		}
		start := threadCPU()
		err = p.Program.Run(ctx, r.input)
		total += threadCPU() - start
		instrs += ctx.Stats().Instructions
		ctx.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("untraced replay of %s: %w", p.Name(), err)
		}
	}
	return total, instrs, nil
}

// memSampleNames are the runtime/metrics counters read around each traced
// detection: heap objects and bytes allocated, and completed GC cycles.
var memSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

type memCounters [3]uint64

func readMem() memCounters {
	s := make([]metrics.Sample, len(memSampleNames))
	for i, n := range memSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var c memCounters
	for i := range s {
		c[i] = s[i].Value.Uint64()
	}
	return c
}

// tracedDetection is what one traced detection measured.
type tracedDetection struct {
	begin, end  time.Time // NewDetector call to Detect return
	before, mem memCounters
	report      *core.Report
	replayDur   time.Duration
	replayInstr int64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layers splits one traced detection into per-layer values, keyed by
// per-layer metric name. The phases tile the detection: classify runs
// from its mark to the first record mark, each record and analyze phase
// to the next mark, and the last analyze to Detect's return; whatever
// precedes the classify mark is unattributed. On the one processor the
// recording slots take turns, so Run times add up within the record wall.
func (p *probe) layers(d tracedDetection) map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	phaseDur := map[string]time.Duration{}
	for i, m := range p.marks {
		next := d.end
		if i+1 < len(p.marks) {
			next = p.marks[i+1].at
		}
		phaseDur[m.phase] += next.Sub(m.at)
	}
	var runAll, recordRun time.Duration
	var instrs int64
	for _, r := range p.runs {
		runAll += r.dur
		instrs += r.instrs
		if r.phase == core.PhaseRecord {
			recordRun += r.dur
		}
	}
	wall := d.end.Sub(d.begin)
	classify, record, analyze := phaseDur[core.PhaseClassify], phaseDur[core.PhaseRecord], phaseDur[core.PhaseAnalyze]
	attributed := classify + record + analyze
	runs := float64(len(p.runs))
	return map[string]float64{
		"core.classify_ms":             ms(classify),
		"core.record_ms":               ms(record),
		"core.analyze_ms":              ms(analyze),
		"core.record_other_ms":         ms(record - recordRun),
		"core.unattributed_ms":         ms(wall - attributed),
		"layers.coverage":              float64(attributed) / float64(wall),
		"simt.run_ms":                  ms(d.replayDur),
		"tracer.hooks_ms":              ms(runAll - d.replayDur),
		"simt.instrs_per_run":          float64(instrs) / runs,
		"simt.mips_untraced":           float64(d.replayInstr) / d.replayDur.Seconds() / 1e6,
		"traced.mips":                  float64(instrs) / runAll.Seconds() / 1e6,
		"tracer.slowdown":              float64(runAll) / float64(d.replayDur),
		"core.record_run_share":        float64(recordRun) / float64(record),
		"core.runs_per_detection":      runs,
		"core.classes":                 float64(d.report.Classes),
		"report.leaks":                 float64(len(d.report.Leaks)),
		"core.allocs_per_run":          float64(d.mem[0]-d.before[0]) / runs,
		"core.alloc_bytes_per_run":     float64(d.mem[1]-d.before[1]) / runs,
		"core.gc_cycles_per_detection": float64(d.mem[2] - d.before[2]),
	}
}
