// Streaming evidence pipeline: the Runner contract delivers traces to a
// TraceSink as each instrumented execution completes, and an ordered
// reorder window re-establishes request order on the consuming side so
// merge order — and therefore every report — is bit-identical to
// sequential recording while peak heap stays O(workers + window) traces
// instead of O(runs).
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"owl/internal/cuda"
	"owl/internal/obs"
	"owl/internal/trace"
)

// DefaultReorderWindow is the number of out-of-order traces an ordered
// consumer buffers before applying backpressure to the delivering
// workers. It bounds the evidence-phase trace heap independently of the
// run count.
const DefaultReorderWindow = 32

// orderedSink re-establishes request order over concurrently delivered
// traces: consume is invoked for index 0, 1, 2, ... regardless of arrival
// order. Arrivals ahead of the next expected index park in a bounded
// pending window; once the window is full, delivering goroutines block
// until the merge frontier advances (or their context fires). Delivery of
// the next expected index never blocks, which keeps the window
// deadlock-free for any runner that dispatches requests in index order.
type orderedSink struct {
	mu      sync.Mutex
	wake    chan struct{} // closed and replaced whenever the frontier moves
	next    int
	window  int
	pending map[int]*trace.ProgramTrace
	consume func(idx int, t *trace.ProgramTrace) error
	err     error
}

func newOrderedSink(window int, consume func(int, *trace.ProgramTrace) error) *orderedSink {
	if window < 1 {
		window = DefaultReorderWindow
	}
	return &orderedSink{
		wake:    make(chan struct{}),
		window:  window,
		pending: make(map[int]*trace.ProgramTrace),
		consume: consume,
	}
}

// Sink is the TraceSink of the collector. Safe for concurrent use.
func (s *orderedSink) Sink(ctx context.Context, res RunResult) error {
	s.mu.Lock()
	// stall measures how long this delivery parks on a full reorder
	// window — the backpressure the streaming pipeline trades for its
	// bounded heap. It opens lazily, only if the goroutine actually waits.
	var stall *obs.Span
	for s.err == nil && res.Index != s.next && len(s.pending) >= s.window {
		if stall == nil {
			_, stall = obs.Start(ctx, "reorder.stall")
			stall.SetInt("index", int64(res.Index))
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
			s.mu.Lock()
		case <-ctx.Done():
			s.mu.Lock()
			s.fail(ctx.Err())
			s.mu.Unlock()
			stall.End()
			return ctx.Err()
		}
	}
	stall.End()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if res.Index != s.next {
		s.pending[res.Index] = res.Trace
		obs.Counter(ctx, "reorder_pending", float64(len(s.pending)))
		return nil
	}
	t := res.Trace
	for {
		if err := s.consume(s.next, t); err != nil {
			s.fail(err)
			return err
		}
		s.next++
		nt, ok := s.pending[s.next]
		if !ok {
			break
		}
		delete(s.pending, s.next)
		t = nt
	}
	obs.Counter(ctx, "reorder_pending", float64(len(s.pending)))
	s.broadcast()
	return nil
}

// delivered returns how many traces have been consumed in order.
func (s *orderedSink) delivered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// fail poisons the sink (first error wins) and wakes every waiter. Called
// with s.mu held.
func (s *orderedSink) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.broadcast()
}

// broadcast wakes every parked deliverer. Called with s.mu held.
func (s *orderedSink) broadcast() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// OrderedSink builds a TraceSink that re-establishes request order over
// concurrently delivered traces: consume runs for index 0, 1, 2, ...
// regardless of arrival order, with at most window (<= 0 selects
// DefaultReorderWindow) out-of-order traces buffered before deliverers
// block. It is the ordering building block custom Runner consumers can
// reuse; the pipeline's own classify and merge sinks are built on it.
func OrderedSink(window int, consume func(idx int, t *trace.ProgramTrace) error) TraceSink {
	return newOrderedSink(window, consume).Sink
}

// RunError is the failure of one request of a StreamParallel batch. It
// prints and unwraps as the underlying error and adds which request
// failed, so a remote worker can name the failing run. StreamParallel
// wraps every record error in one; a sink may return one for a failure
// of the run it was handed.
type RunError struct {
	Index int // the failing request's RunRequest.Index
	Err   error
}

func (e *RunError) Error() string { return e.Err.Error() }
func (e *RunError) Unwrap() error { return e.Err }

// StreamParallel is Owl's one recording fan-out, the only code that
// dispatches runs: up to cap(slots) recording goroutines each take a
// slot, then the next request in index order, record it and stream its
// trace into sink, until the batch runs out. The built-in runner passes a
// per-batch slot set (one slot records sequentially); service.Pool and
// cluster workers pass their process-wide one, so every batch shares the
// bound. In-order dispatch is a hard requirement — ordered sinks rely on
// it to stay deadlock-free — and holds because a request is taken only by
// a goroutine that already holds a slot. The first record or sink error
// cancels the remaining work and is returned after in-flight runs unwind;
// a record error comes back as a *RunError.
func StreamParallel(ctx context.Context, slots chan struct{}, p cuda.Program, reqs []RunRequest, recipe Recipe, sink TraceSink) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     atomic.Int64 // the next request to take
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for range min(cap(slots), len(reqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The goroutine records every run it takes on one run state,
			// built by its first run and reset for each next one. It holds
			// the state's device arena only while it holds a slot: when the
			// slot set is taken (other batches share a process-wide one), it
			// closes the state before it waits, and the next run draws an
			// arena again. So live arenas never outnumber slots.
			st := runState{recipe: recipe}
			defer st.close()
			for {
				if ctx.Err() != nil {
					return
				}
				select {
				case slots <- struct{}{}:
				default:
					st.close()
					select {
					case slots <- struct{}{}:
					case <-ctx.Done():
						return
					}
				}
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					<-slots
					return
				}
				req := reqs[i]
				t, err := st.record(ctx, p, req.Input, req.Seed)
				if err != nil {
					fail(&RunError{Index: req.Index, Err: err})
				} else if err := sink(ctx, RunResult{Index: req.Index, Trace: t}); err != nil {
					fail(err)
				}
				<-slots
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}
