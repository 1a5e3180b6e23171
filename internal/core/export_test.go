package core

import (
	"context"

	"owl/internal/cuda"
	"owl/internal/trace"
)

// RunStateRecorder returns a function that records runs one after
// another on a single run state, as a recording goroutine does, and the
// function that closes the state.
func RunStateRecorder(r Recipe) (record func(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error), close func()) {
	s := &runState{recipe: r}
	return s.record, s.close
}
