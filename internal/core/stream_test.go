package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/trace"
)

// mkTrace builds a minimal distinguishable trace.
func mkTrace(i int) *trace.ProgramTrace {
	return &trace.ProgramTrace{Program: fmt.Sprintf("t%d", i)}
}

// TestOrderedSinkReordersArrivals delivers indices in a shuffled order
// from one goroutine per index and checks consumption happens strictly
// in index order.
func TestOrderedSinkReordersArrivals(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	var got []int
	s := newOrderedSink(n, func(i int, tr *trace.ProgramTrace) error {
		mu.Lock()
		got = append(got, i)
		mu.Unlock()
		if tr.Program != fmt.Sprintf("t%d", i) {
			return fmt.Errorf("index %d carried trace %q", i, tr.Program)
		}
		return nil
	})
	order := rand.New(rand.NewSource(7)).Perm(n)
	var wg sync.WaitGroup
	for _, i := range order {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Sink(context.Background(), RunResult{Index: i, Trace: mkTrace(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if s.delivered() != n {
		t.Fatalf("delivered %d of %d", s.delivered(), n)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("consumed index %d at position %d", idx, i)
		}
	}
}

// TestOrderedSinkBackpressure checks a full reorder window blocks
// out-of-order deliverers until the frontier advances, and that delivery
// of the next expected index never blocks.
func TestOrderedSinkBackpressure(t *testing.T) {
	s := newOrderedSink(1, func(int, *trace.ProgramTrace) error { return nil })

	blocked := make(chan error, 1)
	// Index 1 parks in the window; index 2 must block (window full).
	if err := s.Sink(context.Background(), RunResult{Index: 1, Trace: mkTrace(1)}); err != nil {
		t.Fatal(err)
	}
	go func() {
		blocked <- s.Sink(context.Background(), RunResult{Index: 2, Trace: mkTrace(2)})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("over-window delivery did not block (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	// The next expected index unblocks everything.
	if err := s.Sink(context.Background(), RunResult{Index: 0, Trace: mkTrace(0)}); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if s.delivered() != 3 {
		t.Fatalf("delivered %d of 3", s.delivered())
	}
}

// TestOrderedSinkContextCancel checks a blocked deliverer aborts on
// context cancellation and the sink stays poisoned afterwards.
func TestOrderedSinkContextCancel(t *testing.T) {
	s := newOrderedSink(1, func(int, *trace.ProgramTrace) error { return nil })
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Sink(ctx, RunResult{Index: 1, Trace: mkTrace(1)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- s.Sink(ctx, RunResult{Index: 2, Trace: mkTrace(2)})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked delivery returned %v, want context.Canceled", err)
	}
	if err := s.Sink(context.Background(), RunResult{Index: 0, Trace: mkTrace(0)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoned sink accepted a delivery (err=%v)", err)
	}
}

// seqStream is a minimal streaming Runner: record each request in order
// and deliver its trace straight to the sink.
type seqStream struct{}

func (seqStream) RecordStream(ctx context.Context, p cuda.Program, reqs []RunRequest, recipe Recipe, sink TraceSink) error {
	for _, req := range reqs {
		tr, err := recipe.Record(ctx, p, req.Input, req.Seed)
		if err != nil {
			return err
		}
		if err := sink(ctx, RunResult{Index: req.Index, Trace: tr}); err != nil {
			return err
		}
	}
	return nil
}

// gateProgram launches nothing; it counts its runs and fails the run
// whose input starts with failOn (0 never fails: inputs start at 1).
type gateProgram struct {
	mu     sync.Mutex
	runs   int
	failOn byte
}

var errGate = errors.New("gate")

func (p *gateProgram) Name() string { return "gate" }

func (p *gateProgram) Run(ctx *cuda.Context, input []byte) error {
	p.mu.Lock()
	p.runs++
	p.mu.Unlock()
	if p.failOn != 0 && input[0] == p.failOn {
		return errGate
	}
	return nil
}

// gateReqs builds n requests whose inputs are their 1-based indices.
func gateReqs(n int) []RunRequest {
	reqs := make([]RunRequest, n)
	for i := range reqs {
		reqs[i] = RunRequest{Index: i, Input: []byte{byte(i + 1)}, Seed: int64(i)}
	}
	return reqs
}

// TestSeqStreamDeliversInOrder pins the reference Runner used across the
// core tests: request order in, request order out.
func TestSeqStreamDeliversInOrder(t *testing.T) {
	var got []int
	sink := func(ctx context.Context, res RunResult) error {
		got = append(got, res.Index)
		return nil
	}
	recipe := Recipe{Device: gpu.DefaultConfig(), Rebase: true}
	if err := (seqStream{}).RecordStream(context.Background(), &gateProgram{}, gateReqs(3), recipe, sink); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %v, want %v", got, want)
	}
}

// TestNewDetectorRejectsWorkersAndRunner checks the two recording
// strategies are mutually exclusive.
func TestNewDetectorRejectsWorkersAndRunner(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Runner = seqStream{}
	if _, err := NewDetector(opts); err == nil {
		t.Fatal("NewDetector accepted both Workers and Runner")
	}
	opts.Workers = 0
	if _, err := NewDetector(opts); err != nil {
		t.Fatalf("Runner alone rejected: %v", err)
	}
	opts.Runner = nil
	opts.Workers = 4
	if _, err := NewDetector(opts); err != nil {
		t.Fatalf("Workers alone rejected: %v", err)
	}
}

// TestStreamParallelFirstError checks the fan-out engine reports the
// first failure, as a RunError naming its request that prints like the
// record error, and stops dispatching.
func TestStreamParallelFirstError(t *testing.T) {
	p := &gateProgram{failOn: 4}
	reqs := gateReqs(64)
	// A run after the failing one blocks in the sink, as an ordered
	// sink's backpressure does, until the failure cancels the batch, so
	// the other goroutine cannot drain the batch first; giveUp bounds the
	// wait should the batch never be cancelled.
	giveUp := make(chan struct{})
	defer time.AfterFunc(5*time.Second, func() { close(giveUp) }).Stop()
	sink := func(ctx context.Context, res RunResult) error {
		if res.Index > 3 {
			select {
			case <-ctx.Done():
			case <-giveUp:
			}
		}
		return nil
	}
	recipe := Recipe{Device: gpu.DefaultConfig(), Rebase: true}
	err := StreamParallel(context.Background(), make(chan struct{}, 2), p, reqs, recipe, sink)
	if !errors.Is(err, errGate) {
		t.Fatalf("got %v, want the record error", err)
	}
	var runErr *RunError
	if !errors.As(err, &runErr) || runErr.Index != 3 {
		t.Fatalf("got %#v, want a RunError for request 3", err)
	}
	if err.Error() != runErr.Err.Error() {
		t.Errorf("RunError prints %q, the record error %q", err.Error(), runErr.Err.Error())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.runs == len(reqs) {
		t.Error("error did not stop dispatch")
	}
}
