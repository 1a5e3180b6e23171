package trace

import "sync"

// pool holds released traces whole: each keeps its invocation list, and
// each invocation its A-DCFG and cost-site slice, so recording the next
// run of a program refills the buffers the last one grew.
var pool = sync.Pool{New: func() any { return new(ProgramTrace) }}

// New returns an empty trace of the named program, reusing a released
// one when one is pooled. Its slices keep their buffers, and the
// invocations past their length stay in them for the tracer to reuse,
// each at the launch position it was recorded at.
func New(program string) *ProgramTrace {
	t := pool.Get().(*ProgramTrace)
	t.Program = program
	t.Invocations, t.Allocs = t.Invocations[:0], t.Allocs[:0]
	return t
}

// Release puts the trace back intact for New to hand out again. It is
// the tear-down half of the streaming evidence pipeline: once a trace
// has been merged into evidence (or classed as a duplicate), the next
// recording reuses its invocations, graphs and slices instead of growing
// the heap.
//
// The caller must own t outright — no other reference to the trace or
// anything it holds may survive the call. t is unusable afterwards.
// Release(nil) is a no-op.
func Release(t *ProgramTrace) {
	if t != nil {
		pool.Put(t)
	}
}
