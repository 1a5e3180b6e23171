package microarch

import (
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/simt"
)

// Profile aggregates transaction counts per (block, memIdx) instruction
// over a launch — the timing side channel an attacker measures. It is the
// standalone-profiling face of the coalescing model; the detection
// pipeline itself feeds the same observable through Collector into the
// evidence engine.
type Profile struct {
	// Counts[key] sums transactions over all warps; Events[key] counts
	// warp accesses, so Counts/Events is the mean transactions per access.
	Counts map[Key]int64
	Events map[Key]int64
}

// Key identifies one memory instruction.
type Key struct {
	Block  int
	MemIdx int
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		Counts: make(map[Key]int64),
		Events: make(map[Key]int64),
	}
}

// Mean returns the mean transactions per access of one instruction, or 0
// when it never executed.
func (p *Profile) Mean(k Key) float64 {
	if p.Events[k] == 0 {
		return 0
	}
	return float64(p.Counts[k]) / float64(p.Events[k])
}

// Total returns the total transaction count across all instructions — the
// quantity proportional to the memory-latency component of kernel time,
// i.e. what a timing attacker observes per execution.
func (p *Profile) Total() int64 {
	var t int64
	for _, c := range p.Counts {
		t += c
	}
	return t
}

// Recorder is a gpu.Instrument that fills a Profile for every launch it
// instruments. Only global-memory accesses coalesce; other spaces are
// ignored.
type Recorder struct {
	Profile *Profile
}

var _ gpu.Instrument = (*Recorder)(nil)

// NewRecorder returns a recorder with a fresh profile.
func NewRecorder() *Recorder { return &Recorder{Profile: NewProfile()} }

// BeginWarp implements gpu.Instrument.
func (r *Recorder) BeginWarp(int, gpu.Dim3, int) simt.Hooks {
	return &profileHooks{p: r.Profile}
}

// EndLaunch implements gpu.Instrument.
func (r *Recorder) EndLaunch() {}

type profileHooks struct {
	p *Profile
}

func (h *profileHooks) OnBlockEnter(int, uint32) {}

func (h *profileHooks) OnMemAccess(block, memIdx int, space isa.Space, _ bool, addrs []int64) {
	if space != isa.SpaceGlobal {
		return
	}
	k := Key{Block: block, MemIdx: memIdx}
	h.p.Counts[k] += int64(Transactions(addrs))
	h.p.Events[k]++
}
