// Package attack validates Owl's findings by exploiting them: it plays the
// paper's threat-model adversary (§IV-B), who observes accurate, noise-free
// runtime traces — basic-block sequences and accessed addresses — and
// recovers secrets offline. RecoverAESKey inverts the first-round T-table
// indices that Owl flags as data-flow leaks; RecoverRSAExponent reads the
// key bits out of the square-and-multiply block sequence that Owl flags as
// a control-flow leak. A leak Owl reports and this package exploits is a
// true positive by construction.
package attack

import (
	"fmt"
	"strings"
	"sync"

	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/simt"
)

// MemEvent is one observed memory access of a warp: which block and memory
// instruction, and the lane addresses in lane order.
type MemEvent struct {
	Block  int
	MemIdx int
	Space  isa.Space
	Addrs  []int64
}

// WarpObservation is the attacker's reconstructed trace of one warp.
type WarpObservation struct {
	BlockIdx gpu.Dim3
	WarpID   int
	Blocks   []int
	Mems     []MemEvent
}

// KernelObservation collects every warp of one kernel launch.
type KernelObservation struct {
	StackID string
	Kernel  *isa.Kernel
	Warps   []*WarpObservation
}

// Probe is the attacker's observation apparatus: a cuda.Observer that
// reconstructs complete runtime traces, as the threat model grants.
type Probe struct {
	mu      sync.Mutex
	byStack map[string][]*KernelObservation
}

var _ cuda.Observer = (*Probe)(nil)

// NewProbe returns an empty probe.
func NewProbe() *Probe {
	return &Probe{byStack: make(map[string][]*KernelObservation)}
}

// OnAlloc implements cuda.Observer.
func (p *Probe) OnAlloc(gpu.AllocRecord, string) {}

// OnLaunch implements cuda.Observer.
func (p *Probe) OnLaunch(info cuda.LaunchInfo) gpu.Instrument {
	obs := &KernelObservation{StackID: info.StackID, Kernel: info.Kernel}
	p.mu.Lock()
	p.byStack[info.StackID] = append(p.byStack[info.StackID], obs)
	p.mu.Unlock()
	return &probeInst{obs: obs}
}

// Observations returns the launches recorded for a stack identity.
func (p *Probe) Observations(stackID string) []*KernelObservation {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byStack[stackID]
}

// First returns the first observation whose stack identity contains
// substr.
func (p *Probe) First(substr string) (*KernelObservation, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for stack, list := range p.byStack {
		if strings.Contains(stack, substr) && len(list) > 0 {
			return list[0], nil
		}
	}
	return nil, fmt.Errorf("attack: no observation matching %q", substr)
}

type probeInst struct {
	obs *KernelObservation
}

func (pi *probeInst) BeginWarp(blockIdx gpu.Dim3, warpID int) simt.Hooks {
	w := &WarpObservation{BlockIdx: blockIdx, WarpID: warpID}
	pi.obs.Warps = append(pi.obs.Warps, w)
	return &probeHooks{w: w}
}

func (pi *probeInst) EndLaunch() {}

type probeHooks struct {
	w *WarpObservation
}

func (h *probeHooks) OnBlockEnter(block int, _ uint32) {
	h.w.Blocks = append(h.w.Blocks, block)
}

func (h *probeHooks) OnMemAccess(block, memIdx int, space isa.Space, _ bool, addrs []int64) {
	cp := make([]int64, len(addrs))
	copy(cp, addrs)
	h.w.Mems = append(h.w.Mems, MemEvent{Block: block, MemIdx: memIdx, Space: space, Addrs: cp})
}

// blockByLabel finds a kernel block ID by its label.
func blockByLabel(k *isa.Kernel, label string) (int, error) {
	for _, b := range k.Blocks {
		if b.Label == label {
			return b.ID, nil
		}
	}
	return 0, fmt.Errorf("attack: kernel %q has no block labeled %q", k.Name, label)
}
