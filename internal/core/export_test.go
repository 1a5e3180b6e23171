package core

import (
	"context"

	"owl/internal/cuda"
	"owl/internal/stats"
	"owl/internal/trace"
)

// RunStateRecorder returns a function that records runs one after
// another on a single run state, as a recording goroutine does, and the
// function that closes the state.
func RunStateRecorder(r Recipe) (record func(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error), close func()) {
	s := &runState{recipe: r}
	return s.record, s.close
}

// Reject runs the detector's per-run distribution test, as the diff
// channel's leakage tests do, over two counted samples with zeros
// observations of 0 each.
func (d *Detector) Reject(x *stats.Counted, xZeros int, y *stats.Counted, yZeros int) (bool, float64, float64, error) {
	return d.reject(x, xZeros, y, yZeros)
}
