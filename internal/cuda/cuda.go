// Package cuda models the host side of a CUDA application: a Context that
// owns one simulated device and exposes the memory-allocation and
// kernel-launch API families the paper instruments with Pin (§V-C). The
// context maintains an explicit host call stack — launches are identified
// by that stack rather than by function address, reproducing the paper's
// cuLaunchKernel-wrapping workaround — and logs every host API event for
// the observers (Owl's tracer, the DATA baseline).
package cuda

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"owl/internal/gpu"
	"owl/internal/isa"
)

// DevPtr is a device pointer: the base address of an allocation in the
// global-memory arena.
type DevPtr int64

// Program is a CUDA application under test: host code that allocates,
// copies, and launches kernels on the context. input is the secret input
// in the paper's threat model.
type Program interface {
	Name() string
	Run(ctx *Context, input []byte) error
}

// InputGen draws a random secret input for the leakage-analysis phase.
type InputGen func(r *rand.Rand) []byte

// EventKind tags host API events.
type EventKind uint8

// Host API event kinds.
const (
	EventAlloc EventKind = iota + 1
	EventMemcpyHtoD
	EventMemcpyDtoH
	EventLaunch
)

// Event is one host API call, in chronological order (the paper's
// program-level trace, T_P).
type Event struct {
	Kind    EventKind
	Seq     int
	Site    string // host call stack at the call site
	AllocID int    // EventAlloc
	Words   int64  // EventAlloc, EventMemcpy*
	Kernel  string // EventLaunch: kernel name
	StackID string // EventLaunch: call-stack identity of the launch
	Grid    gpu.Dim3
	Block   gpu.Dim3
}

// LaunchInfo describes a launch to an Observer before it runs.
type LaunchInfo struct {
	Seq     int
	StackID string
	Kernel  *isa.Kernel
	Grid    gpu.Dim3
	Block   gpu.Dim3
	Params  []int64
}

// Observer watches host API activity and may instrument launches, playing
// the role of the Pin+NVBit pair. OnLaunch returns the device
// instrumentation for the launch, or nil to leave it untraced.
type Observer interface {
	OnAlloc(rec gpu.AllocRecord, site string)
	OnLaunch(info LaunchInfo) gpu.Instrument
}

// Context is the host-side runtime handle for one program execution at a
// time: Reset readies it for the next.
type Context struct {
	cfg       gpu.Config
	dev       *gpu.Device
	seed      int64
	rng       *rand.Rand // nil until Rand builds it from seed
	obs       Observer
	frames    []string
	sites     []string // joined call-stack path per frame depth; sites[len(frames)-1] is current
	events    []Event
	seq       int
	stats     gpu.LaunchStats
	overrides map[string]*isa.Kernel
	outputs   [][]int64
}

// NewContext creates a context over a fresh device. seedRNG supplies both
// the device's ASLR slide and the program's non-deterministic choices; obs
// may be nil.
func NewContext(cfg gpu.Config, seedRNG *rand.Rand, obs Observer) (*Context, error) {
	if seedRNG == nil {
		return nil, fmt.Errorf("cuda: nil rng")
	}
	dev, err := gpu.NewDevice(cfg, seedRNG)
	if err != nil {
		return nil, err
	}
	return &Context{cfg: cfg, dev: dev, rng: seedRNG, obs: obs}, nil
}

// NewSeededContext creates a context over a fresh device whose
// non-determinism derives from seed alone. It behaves exactly as
// NewContext(cfg, rand.New(rand.NewSource(seed)), obs), but builds that
// generator only when the execution draws from it: for the ASLR slide
// when cfg.ASLR is on, or when the program calls Rand. Seeding a
// math/rand source costs more than many short kernel runs, and most
// executions never draw.
func NewSeededContext(cfg gpu.Config, seed int64, obs Observer) (*Context, error) {
	c := &Context{cfg: cfg, obs: obs}
	if err := c.Reset(seed); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset readies the context for its next execution, as though
// NewSeededContext had just made it with seed and the same device
// configuration and observer: empty event log, call stack and
// statistics, no kernel overrides, outputs or observability context,
// and a device with no allocations whose memory reads as zero. The
// device keeps its arena, so a context reset for every run allocates
// none per run; a device whose arena was released draws one from the
// pool. Slices the previous execution handed out (Outputs,
// Events) stay valid; DevPtrs from it do not.
func (c *Context) Reset(seed int64) error {
	var rng *rand.Rand
	if c.cfg.ASLR {
		// The slide is the generator's first draw; Rand hands the program
		// the same generator, positioned after it.
		rng = rand.New(rand.NewSource(seed))
	}
	dev := c.dev
	if dev == nil {
		var err error
		if dev, err = gpu.NewDevice(c.cfg, rng); err != nil {
			return err
		}
	} else if err := dev.Reset(rng); err != nil {
		return err
	}
	// Reuse the event log and call-stack backing arrays (Events copies on
	// read); outputs is never reused, since Outputs hands out the live
	// slice.
	*c = Context{
		cfg: c.cfg, dev: dev, seed: seed, rng: rng, obs: c.obs,
		frames: c.frames[:0], sites: c.sites[:0], events: c.events[:0],
	}
	return nil
}

// Device exposes the underlying device (tests, baselines, and the
// detector, which releases a waiting run state's arena through it).
func (c *Context) Device() *gpu.Device { return c.dev }

// SetObsContext attaches an observability context (see internal/obs) to
// the execution: kernel launches emit spans and counters under the span
// carried by ctx. The detection pipeline calls this with each run's span
// context; a context without a recorder — or never calling this — keeps
// execution on the uninstrumented fast path.
func (c *Context) SetObsContext(ctx context.Context) { c.dev.SetObsContext(ctx) }

// Close releases the context's simulated device memory back to the shared
// arena pool. Neither the context nor any DevPtr obtained from it may be
// used afterwards. Close is optional: an unclosed context is collected
// as garbage.
func (c *Context) Close() {
	if c.dev == nil {
		return
	}
	c.dev.Release()
	c.dev = nil
	// Outputs() hands callers the live slice, and captured outputs may be
	// held long after Close (equivalence checking does).
	c.outputs = nil
}

// Rand returns the program's non-determinism source. Repeated fixed-input
// executions draw different values from it, which is exactly the noise
// Owl's distribution test must refuse to flag (§VII). A seeded context
// builds it on first call; with ASLR on it is the generator the slide
// was drawn from.
func (c *Context) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	return c.rng
}

// Events returns the chronological host API log.
func (c *Context) Events() []Event {
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Stats returns accumulated device execution statistics.
func (c *Context) Stats() gpu.LaunchStats { return c.stats }

// SetKernelOverrides installs kernel substitutions consulted at Launch: a
// launched kernel whose name matches an entry runs the override definition
// instead. The substitution keeps the original name, so launch stack IDs —
// and therefore leak locations — stay comparable between the original and
// a hardened variant of the same program. internal/mitigate uses this to
// run repaired kernels through unmodified host code.
//
// Installing overrides evicts the process-wide decoded-executor cache:
// repair iterates — successive calls may bind the same kernel object to
// revised definitions — and a stale decode must never outlive the
// substitution it belongs to.
func (c *Context) SetKernelOverrides(m map[string]*isa.Kernel) {
	c.overrides = m
	gpu.EvictExecutors()
}

// Outputs returns every device-to-host copy performed on this context, in
// call order — the program's observable result surface. Differential
// equivalence checking compares these between original and transformed
// kernels.
func (c *Context) Outputs() [][]int64 { return c.outputs }

// Call runs f with frame pushed on the host call stack, so allocations and
// launches inside f are attributed to it.
func (c *Context) Call(frame string, f func() error) error {
	joined := internSite(c.site(), frame)
	c.frames = append(c.frames, frame)
	c.sites = append(c.sites[:len(c.frames)-1], joined)
	err := f()
	c.frames = c.frames[:len(c.frames)-1]
	return err
}

func (c *Context) site() string {
	if len(c.frames) == 0 {
		return "main"
	}
	return c.sites[len(c.frames)-1]
}

// Call-stack paths repeat across the hundreds of runs of a detection, so
// the joined strings — and the launch stack IDs built the same way — are
// interned process-wide: steady-state site() is a slice index, and
// neither Call nor a launch's stack ID allocates.
var (
	siteMu     sync.Mutex
	siteIntern = map[[2]string]string{}
)

func internSite(parent, frame string) string {
	key := [2]string{parent, frame}
	siteMu.Lock()
	s, ok := siteIntern[key]
	if !ok {
		s = parent + "/" + frame
		siteIntern[key] = s
	}
	siteMu.Unlock()
	return s
}

func (c *Context) nextSeq() int {
	s := c.seq
	c.seq++
	return s
}

// addEvent appends to the host API log, sizing it once up front: typical
// programs log a handful of events, and growing from nil costs several
// reallocations; a reset context keeps the grown log.
func (c *Context) addEvent(e Event) {
	if c.events == nil {
		c.events = make([]Event, 0, 16)
	}
	c.events = append(c.events, e)
}

// Malloc reserves words of device memory, as cudaMalloc and friends do.
func (c *Context) Malloc(words int64) (DevPtr, error) {
	rec, err := c.dev.Alloc(words)
	if err != nil {
		return 0, err
	}
	site := c.site()
	c.addEvent(Event{
		Kind: EventAlloc, Seq: c.nextSeq(), Site: site, AllocID: rec.ID, Words: rec.Words,
	})
	if c.obs != nil {
		c.obs.OnAlloc(rec, site)
	}
	return DevPtr(rec.Base), nil
}

// MemcpyHtoD copies host data to device memory.
func (c *Context) MemcpyHtoD(dst DevPtr, data []int64) error {
	if err := c.dev.WriteGlobal(int64(dst), data); err != nil {
		return err
	}
	c.addEvent(Event{
		Kind: EventMemcpyHtoD, Seq: c.nextSeq(), Site: c.site(), Words: int64(len(data)),
	})
	return nil
}

// MemcpyDtoH copies device memory back to the host.
func (c *Context) MemcpyDtoH(src DevPtr, words int64) ([]int64, error) {
	out, err := c.dev.ReadGlobal(int64(src), words)
	if err != nil {
		return nil, err
	}
	c.addEvent(Event{
		Kind: EventMemcpyDtoH, Seq: c.nextSeq(), Site: c.site(), Words: words,
	})
	c.outputs = append(c.outputs, out)
	return out, nil
}

// SetConstant loads data into constant memory at off (cudaMemcpyToSymbol).
func (c *Context) SetConstant(off int64, data []int64) error {
	return c.dev.WriteConstant(off, data)
}

// Launch runs kernel k over the grid, identified by the current host call
// stack (not the kernel's address — see §V-C).
func (c *Context) Launch(k *isa.Kernel, grid, block gpu.Dim3, params ...int64) error {
	if ov := c.overrides[k.Name]; ov != nil {
		k = ov
	}
	stackID := internSite(c.site(), k.Name)
	seq := c.nextSeq()
	c.addEvent(Event{
		Kind: EventLaunch, Seq: seq, Site: c.site(), Kernel: k.Name,
		StackID: stackID, Grid: grid, Block: block,
	})
	var inst gpu.Instrument
	if c.obs != nil {
		inst = c.obs.OnLaunch(LaunchInfo{
			Seq: seq, StackID: stackID, Kernel: k, Grid: grid, Block: block, Params: params,
		})
	}
	st, err := c.dev.Launch(k, grid, block, params, inst)
	if err != nil {
		return fmt.Errorf("cuda: launch %s: %w", stackID, err)
	}
	c.stats.Warps += st.Warps
	c.stats.Threads += st.Threads
	c.stats.BlocksExecuted += st.BlocksExecuted
	c.stats.Instructions += st.Instructions
	return nil
}
