//go:build race

package simt

// raceEnabled reports whether the race detector is compiled in. Allocation-
// count tests skip under race: its instrumentation disables inlining, which
// defeats the escape analysis the zero-alloc claims depend on, and
// sync.Pool drops a random quarter of the items put back, so pooled state
// is reallocated.
const raceEnabled = true
