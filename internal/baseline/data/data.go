// Package data reimplements the DATA baseline of §VIII-D: a Pin-based
// dynamic differential tool. It observes only host-side API activity (it
// "fails to observe traces inside the GPU"), so it can surface kernel
// leaks — input-dependent host control flow around launches — but is blind
// to device control-flow and data-flow leaks. Its optional per-thread
// recording mode reproduces DATA's linear-in-threads memory consumption,
// the scalability wall Owl's A-DCFG aggregation removes (§III-B ❹).
package data

import (
	"fmt"
	"math/bits"
	"math/rand"

	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/myers"
	"owl/internal/simt"
)

// Options configures the baseline.
type Options struct {
	Runs   int // executions per input regime
	Seed   int64
	Device gpu.Config
}

// DefaultOptions mirrors the Owl comparison setup.
func DefaultOptions() Options {
	return Options{Runs: 20, Seed: 1, Device: gpu.DefaultConfig()}
}

// Finding is one host-trace difference DATA attributes to the input.
type Finding struct {
	Event  string // host event descriptor (launch stack, alloc site)
	Detail string
}

// Report is the outcome of one DATA analysis.
type Report struct {
	Program string
	// HostLeaks are input-dependent host API differences (kernel leaks in
	// Owl's taxonomy).
	HostLeaks []Finding
	// DeviceLeaks is always zero: DATA cannot observe device traces. The
	// field exists so comparison tables render explicitly.
	DeviceLeaks int
}

// Detector runs the DATA baseline.
type Detector struct {
	opts Options
	rng  *rand.Rand
}

// New validates options and returns a detector.
func New(opts Options) (*Detector, error) {
	if opts.Runs < 2 {
		return nil, fmt.Errorf("data: need at least 2 runs, got %d", opts.Runs)
	}
	if opts.Device.GlobalWords == 0 {
		opts.Device = gpu.DefaultConfig()
	}
	return &Detector{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}, nil
}

// hostTrace runs the program once and returns its host event signature.
func (d *Detector) hostTrace(p cuda.Program, input []byte) ([]string, error) {
	ctx, err := cuda.NewContext(d.opts.Device, rand.New(rand.NewSource(d.rng.Int63())), nil)
	if err != nil {
		return nil, err
	}
	if err := p.Run(ctx, input); err != nil {
		return nil, err
	}
	var sig []string
	for _, e := range ctx.Events() {
		switch e.Kind {
		case cuda.EventAlloc:
			sig = append(sig, fmt.Sprintf("alloc@%s[%d]", e.Site, e.Words))
		case cuda.EventLaunch:
			sig = append(sig, "launch@"+e.StackID)
		case cuda.EventMemcpyHtoD:
			sig = append(sig, fmt.Sprintf("h2d@%s[%d]", e.Site, e.Words))
		case cuda.EventMemcpyDtoH:
			sig = append(sig, fmt.Sprintf("d2h@%s[%d]", e.Site, e.Words))
		}
	}
	return sig, nil
}

// Detect compares fixed-input host traces against random-input host
// traces, discarding differences that already occur between repeated
// fixed-input runs (DATA's noise-filtering phase).
func (d *Detector) Detect(p cuda.Program, fixed []byte, gen cuda.InputGen) (*Report, error) {
	if gen == nil {
		return nil, fmt.Errorf("data: nil input generator")
	}
	rep := &Report{Program: p.Name()}

	fixRuns := make([][]string, d.opts.Runs)
	for i := range fixRuns {
		sig, err := d.hostTrace(p, fixed)
		if err != nil {
			return nil, err
		}
		fixRuns[i] = sig
	}
	// Events unstable across fixed runs are non-deterministic noise.
	noise := make(map[string]bool)
	for _, run := range fixRuns[1:] {
		for _, op := range myers.Diff(fixRuns[0], run) {
			switch op.Kind {
			case myers.Delete:
				noise[fixRuns[0][op.AIdx]] = true
			case myers.Insert:
				noise[run[op.BIdx]] = true
			}
		}
	}

	genRNG := rand.New(rand.NewSource(d.rng.Int63()))
	seen := make(map[string]bool)
	for i := 0; i < d.opts.Runs; i++ {
		sig, err := d.hostTrace(p, gen(genRNG))
		if err != nil {
			return nil, err
		}
		for _, op := range myers.Diff(fixRuns[0], sig) {
			var ev, detail string
			switch op.Kind {
			case myers.Delete:
				ev, detail = fixRuns[0][op.AIdx], "present under fixed input only"
			case myers.Insert:
				ev, detail = sig[op.BIdx], "present under random input only"
			default:
				continue
			}
			if noise[ev] || seen[ev] {
				continue
			}
			seen[ev] = true
			rep.HostLeaks = append(rep.HostLeaks, Finding{Event: ev, Detail: detail})
		}
	}
	return rep, nil
}

// PerThreadTracer is DATA's trace-recording strategy transplanted to the
// device: one full address trace per thread, no aggregation. Attach it as
// the observer of a cuda.Context and read Bytes afterwards; comparing
// against the A-DCFG trace size reproduces the paper's scalability
// argument (§IV-A, RQ2).
type PerThreadTracer struct {
	entries int64
}

var _ cuda.Observer = (*PerThreadTracer)(nil)

// OnAlloc implements cuda.Observer.
func (t *PerThreadTracer) OnAlloc(gpu.AllocRecord, string) {}

// OnLaunch implements cuda.Observer.
func (t *PerThreadTracer) OnLaunch(cuda.LaunchInfo) gpu.Instrument {
	return perThreadInst{t: t}
}

// Bytes returns the recorded trace size: 16 bytes per per-thread event
// (block id or address, plus thread key), DATA's storage model.
func (t *PerThreadTracer) Bytes() int64 { return t.entries * 16 }

// Entries returns the raw event count.
func (t *PerThreadTracer) Entries() int64 { return t.entries }

type perThreadInst struct {
	t *PerThreadTracer
}

func (pi perThreadInst) BeginWarp(gpu.Dim3, int) simt.Hooks {
	return &perThreadHooks{t: pi.t}
}

func (pi perThreadInst) EndLaunch() {}

type perThreadHooks struct {
	t *PerThreadTracer
}

func (h *perThreadHooks) OnBlockEnter(_ int, mask uint32) {
	// One block-entry record per active thread.
	h.t.entries += int64(bits.OnesCount32(mask))
}

func (h *perThreadHooks) OnMemAccess(_, _ int, _ isa.Space, _ bool, addrs []int64) {
	// One address record per active thread.
	h.t.entries += int64(len(addrs))
}
