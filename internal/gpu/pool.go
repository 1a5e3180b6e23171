package gpu

// A device's memory is one pooled object: its global and constant
// arenas. Each is addressable up to its configured size (Config.
// GlobalWords, 16 MiB at the default sizing; Config.ConstWords, 512 KiB)
// but materialized lazily: backing memory grows to the high-water mark
// the program actually allocates or the host actually touches, and reads
// beyond it (inside the configured size) are zero. A device keeps its
// memory across Reset, which truncates both arenas, so a recording
// goroutine that resets one device for every run it records allocates
// none per run; Release hands the memory to a pool the next device draws
// from. Together these keep the recording phase's live heap proportional
// to the memory programs use, not to the address-space ceiling times the
// run count.
//
// The arenas only grow from host-side calls (Alloc, WriteGlobal,
// ReadGlobal, WriteConstant) and at Launch entry, never during kernel
// execution: warps snapshot the arenas' slices at setup for their
// direct-memory fast path.

import "sync"

// arenas is the memory of one device.
type arenas struct {
	global, constant []int64
}

var arenaPool = sync.Pool{New: func() any { return new(arenas) }}

// grow materializes addresses [0, words) of *arena, zeroing any region
// newly exposed from a recycled backing array. Callers bound words by the
// arena's configured size. Must not run concurrently with kernel
// execution.
func grow(arena *[]int64, words int64) {
	n := int64(len(*arena))
	if words <= n {
		return
	}
	if words <= int64(cap(*arena)) {
		*arena = (*arena)[:words]
		clear((*arena)[n:])
		return
	}
	grown := make([]int64, words)
	copy(grown, *arena)
	*arena = grown
}

// Release returns the device's memory to the shared pool. Neither the
// device's memory nor any pointer into it may be used afterwards, until a
// Reset gives the device memory again; callers release only once no
// observer or trace references device memory. Release is optional: an
// unreleased device is simply collected as garbage.
func (d *Device) Release() {
	if d.mem == nil {
		return
	}
	arenaPool.Put(d.mem)
	d.mem = nil
	d.obsCtx = nil
}
