package gpu

// The global-memory arena of a simulated device is addressable up to
// Config.GlobalWords (16 MiB at the default sizing) but materialized
// lazily: backing memory grows to the high-water mark the program
// actually allocates or the host actually touches. A device keeps its
// arena across Reset, so a recording goroutine that resets one device
// for every run it records allocates no arena per run; Release hands
// the arena to a shared pool the next device draws from. Together these
// keep the recording phase's live heap proportional to the memory
// programs use, not to the address-space ceiling times the run count.
//
// The backing store only grows from host-side calls (Alloc, WriteGlobal,
// ReadGlobal) and at Launch entry, never during kernel execution: warps
// snapshot the arena's slice at setup for their direct-memory fast path.

import "sync"

var arenaPool sync.Pool

// newArena returns an empty arena, reusing a pooled backing array when
// one is available. ensure materializes address ranges on demand.
func newArena() []int64 {
	if v := arenaPool.Get(); v != nil {
		return v.([]int64)[:0]
	}
	return nil
}

// Constant memory is materialized and recycled the same way: it is sized
// 64 Ki words (512 KiB) by default but most programs write a few tables
// into its low addresses, and allocating plus zeroing the full extent per
// device dominated short-kernel execution setup. Reads beyond the
// materialized high-water mark (but inside the configured size) are zero,
// exactly as they were when the array was allocated in full.
var constPool sync.Pool

func newConstArena() []int64 {
	if v := constPool.Get(); v != nil {
		return v.([]int64)[:0]
	}
	return nil
}

// Identical constant images are interned: detection uploads the same
// lookup tables once per instrumented execution, and the interned arena
// is immutable, so every device with the same image shares one backing
// array and skips the per-launch materialize-and-copy entirely. The
// table is content-hashed with a full equality check on hit (a hash
// collision must never alias two images), and cleared when it grows past
// a bound so key-varying workloads cannot pin memory.
var (
	constInternMu sync.Mutex
	constIntern   = map[uint64][][]int64{}
	constInterned int
)

const constInternLimit = 64

// internConst returns a process-global immutable arena whose content
// equals data, creating (and caching) a private copy on first sight.
// Callers must never write through the returned slice.
func internConst(data []int64) []int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	// The hash only routes to a bucket — the full equality check below is
	// what guarantees identity — so sampling a few strided words keeps the
	// per-launch cost flat in the image size.
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(len(data)))
	if len(data) <= 32 {
		for _, v := range data {
			mix(uint64(v))
		}
	} else {
		stride := len(data) / 16
		for i := 0; i < len(data); i += stride {
			mix(uint64(data[i]))
		}
		mix(uint64(data[len(data)-1]))
	}
	constInternMu.Lock()
	defer constInternMu.Unlock()
	for _, arena := range constIntern[h] {
		if len(arena) != len(data) {
			continue
		}
		eq := true
		for i, v := range arena {
			if v != data[i] {
				eq = false
				break
			}
		}
		if eq {
			return arena
		}
	}
	cp := make([]int64, len(data))
	copy(cp, data)
	if constInterned >= constInternLimit {
		clear(constIntern)
		constInterned = 0
	}
	constIntern[h] = append(constIntern[h], cp)
	constInterned++
	return cp
}

// unshareConst replaces a shared interned arena with a private copy so
// the caller can write in place.
func (d *Device) unshareConst() {
	shared := d.constant
	d.constant = newConstArena()
	n := int64(len(shared))
	if n <= int64(cap(d.constant)) {
		d.constant = d.constant[:n]
	} else {
		d.constant = make([]int64, n)
	}
	copy(d.constant, shared)
	d.constShared = false
}

// ensureConst materializes constant addresses [0, words), zeroing any
// region newly exposed from a recycled backing array. Callers bound words
// by cfg.ConstWords. Must not run concurrently with kernel execution.
func (d *Device) ensureConst(words int64) {
	n := int64(len(d.constant))
	if words <= n {
		return
	}
	if d.constShared {
		// Never grow a shared arena in place: its backing array may be
		// visible to other devices.
		grown := make([]int64, words)
		copy(grown, d.constant)
		d.constant = grown
		d.constShared = false
		return
	}
	if words <= int64(cap(d.constant)) {
		d.constant = d.constant[:words]
		clear(d.constant[n:])
		return
	}
	grown := make([]int64, words)
	copy(grown, d.constant)
	d.constant = grown
}

// ensure materializes global addresses [0, words), zeroing any region
// newly exposed from a recycled backing array. Callers bound words by
// cfg.GlobalWords. Must not run concurrently with kernel execution.
func (d *Device) ensure(words int64) {
	n := int64(len(d.global))
	if words <= n {
		return
	}
	if words <= int64(cap(d.global)) {
		d.global = d.global[:words]
		clear(d.global[n:])
		return
	}
	grown := make([]int64, words)
	copy(grown, d.global)
	d.global = grown
}

// Release returns the device's global-memory arena to the shared pool.
// Neither the device's memory nor any pointer into it may be used
// afterwards, until a Reset gives the device a fresh arena; callers
// release only once no observer or trace references device memory.
// Release is optional: an unreleased device is simply collected as
// garbage.
func (d *Device) Release() {
	if d.released {
		return
	}
	d.released = true
	if d.global != nil {
		arenaPool.Put(d.global)
		d.global = nil
	}
	if d.constant != nil {
		// Interned arenas belong to the process-global table, not the pool.
		if !d.constShared {
			constPool.Put(d.constant)
		}
		d.constant = nil
		d.constShared = false
	}
	d.obsCtx = nil
}
