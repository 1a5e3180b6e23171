package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/obs"
	"owl/internal/trace"
)

// Options tunes a Fleet. The zero value is usable.
type Options struct {
	// BatchSize caps how many run requests one dispatch carries; the
	// actual size shrinks to the worker's idle slot count (backpressure).
	// <= 0 selects 8.
	BatchSize int
	// ProbeInterval paces /readyz health probes against an unhealthy
	// worker before it rejoins rotation. <= 0 selects 200ms.
	ProbeInterval time.Duration
	// ResultTimeout bounds the silence between two streamed results of
	// one batch before the coordinator declares the worker dead and
	// rebalances. <= 0 selects 60s.
	ResultTimeout time.Duration
	// StallTimeout bounds how long the whole stream may go without any
	// delivery while work remains — the guard against every worker being
	// down at once. <= 0 selects 2 minutes.
	StallTimeout time.Duration
	// MaxAttempts caps how many times one batch is dispatched before the
	// stream fails. <= 0 selects 3 × the worker count.
	MaxAttempts int
	// Client issues the HTTP requests; nil builds one with sane defaults.
	Client *http.Client
}

func (o Options) withDefaults(workers int) Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 8
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 200 * time.Millisecond
	}
	if o.ResultTimeout <= 0 {
		o.ResultTimeout = 60 * time.Second
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3 * workers
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// Fleet is a set of registered owlworker endpoints plus the dispatch
// policy shared by every Runner built over it. A Fleet is cheap and safe
// to share across concurrent jobs.
type Fleet struct {
	addrs []string
	opts  Options
}

// NewFleet validates the worker address list ("host:port" or full URLs)
// and returns a fleet.
func NewFleet(addrs []string, opts Options) (*Fleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no workers given")
	}
	norm := make([]string, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("cluster: empty worker address at position %d", i)
		}
		if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
			a = "http://" + a
		}
		norm[i] = strings.TrimRight(a, "/")
	}
	return &Fleet{addrs: norm, opts: opts.withDefaults(len(addrs))}, nil
}

// Workers lists the fleet's normalized worker base URLs.
func (f *Fleet) Workers() []string { return append([]string(nil), f.addrs...) }

// RunnerConfig holds the coordinator-side hooks of one Runner over a
// fleet; the run recipe arrives with each RecordStream call.
type RunnerConfig struct {
	// OnRun observes each delivered trace with the worker that recorded
	// it — the per-worker throughput feed. May be nil.
	OnRun func(worker string)
	// OnRetry observes each batch rebalance with the worker that failed
	// it. May be nil.
	OnRetry func(worker string)
}

// Runner returns a streaming core.Runner that fans recording out across
// the fleet. Each batch carries the recipe's device, rebase and cost
// settings to the worker, and kernel definitions shipped back go to the
// recipe's Harvest. Traces are delivered to the pipeline's sink strictly
// in request-index order, so reports stay byte-identical to
// single-process runs.
func (f *Fleet) Runner(cfg RunnerConfig) core.Runner {
	return &fleetRunner{fleet: f, cfg: cfg}
}

type fleetRunner struct {
	fleet *Fleet
	cfg   RunnerConfig
}

// errPermanent marks failures that must not be retried on another worker:
// the program itself failed, or determinism was violated.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// segment is a contiguous slice of the batch's run requests owned by one
// dispatch attempt. lastWorker remembers where the previous attempt ran,
// so a pickup elsewhere is observable as a steal.
type segment struct {
	reqs       []core.RunRequest
	attempt    int
	lastWorker string
}

// workQueue is the shared dispatch deque: workers steal the frontmost
// pending segment when idle; rebalanced segments re-enter at the front so
// the merge frontier is always the next work picked up.
type workQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	segs   []segment
	closed bool
}

func newWorkQueue(reqs []core.RunRequest) *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	if len(reqs) > 0 {
		q.segs = []segment{{reqs: reqs}}
	}
	return q
}

// take pops up to n requests off the front segment, blocking while the
// queue is empty and open. ok is false once the queue closes.
func (q *workQueue) take(n int) (seg segment, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.segs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.segs) == 0 {
		return segment{}, false
	}
	head := &q.segs[0]
	if n >= len(head.reqs) {
		seg = *head
		q.segs = q.segs[1:]
		return seg, true
	}
	seg = segment{reqs: head.reqs[:n], attempt: head.attempt, lastWorker: head.lastWorker}
	head.reqs = head.reqs[n:]
	return seg, true
}

// requeue pushes a segment back to the front for rebalancing.
func (q *workQueue) requeue(seg segment) {
	q.mu.Lock()
	q.segs = append([]segment{seg}, q.segs...)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// close releases every blocked taker.
func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// delivery re-establishes request order over traces arriving from any
// worker and feeds the pipeline's sink from a single goroutine, strictly
// in index order. Because the sink therefore always receives the next
// expected index, the pipeline's bounded reorder window never parks a
// deliverer — the cluster's own in-flight bound (worker slots × batch
// size) is what limits coordinator-resident traces.
type delivery struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    int
	total   int
	pending map[int]*trace.ProgramTrace
	done    []bool
	err     error
	lastAdv time.Time
}

func newDelivery(total int) *delivery {
	d := &delivery{
		total:   total,
		pending: make(map[int]*trace.ProgramTrace),
		done:    make([]bool, total),
		lastAdv: time.Now(),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// put accepts one recorded trace. A duplicate or out-of-range index is a
// protocol violation and poisons the stream — the no-lost-no-duplicated
// guarantee is enforced here, not assumed.
func (d *delivery) put(idx int, t *trace.ProgramTrace) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if idx < 0 || idx >= d.total {
		return d.failLocked(fmt.Errorf("cluster: result index %d outside batch of %d", idx, d.total))
	}
	if d.done[idx] {
		return d.failLocked(fmt.Errorf("cluster: duplicate delivery of run %d", idx))
	}
	d.done[idx] = true
	d.pending[idx] = t
	d.lastAdv = time.Now()
	d.cond.Broadcast()
	return nil
}

func (d *delivery) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_ = d.failLocked(err)
}

func (d *delivery) failLocked(err error) error {
	if d.err == nil {
		d.err = err
	}
	d.cond.Broadcast()
	return d.err
}

// run consumes pending traces in index order into sink until the batch
// completes or the stream is poisoned.
func (d *delivery) run(ctx context.Context, sink core.TraceSink) {
	d.mu.Lock()
	for d.err == nil && d.next < d.total {
		t, ok := d.pending[d.next]
		if !ok {
			d.cond.Wait()
			continue
		}
		delete(d.pending, d.next)
		idx := d.next
		d.mu.Unlock()
		err := sink(ctx, core.RunResult{Index: idx, Trace: t})
		d.mu.Lock()
		if err != nil {
			_ = d.failLocked(err)
			break
		}
		d.next += 1
		d.lastAdv = time.Now()
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// wait blocks until every trace has been sunk or the stream failed.
func (d *delivery) wait() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.err == nil && d.next < d.total {
		d.cond.Wait()
	}
	return d.err
}

// state snapshots progress for the stall watchdog.
func (d *delivery) state() (next int, last time.Time, failed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next, d.lastAdv, d.err != nil
}

// undone filters a segment's requests down to those not yet delivered.
func (d *delivery) undone(reqs []core.RunRequest) []core.RunRequest {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := reqs[:0:0]
	for _, r := range reqs {
		if r.Index < d.total && !d.done[r.Index] {
			out = append(out, r)
		}
	}
	return out
}

// RecordStream implements core.Runner over the fleet: run indices are
// work-stolen by per-worker dispatch loops, traces stream back and merge
// in request order, and batches on a dead or silent worker rebalance onto
// the rest of the fleet with only their undelivered runs.
func (r *fleetRunner) RecordStream(ctx context.Context, p cuda.Program, reqs []core.RunRequest, recipe core.Recipe, sink core.TraceSink) error {
	if len(reqs) == 0 {
		return nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	q := newWorkQueue(reqs)
	d := newDelivery(len(reqs))

	// Single in-order feeder into the pipeline's sink.
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		d.run(ctx, sink)
	}()

	// Per-worker dispatch loops.
	var workerWG sync.WaitGroup
	for _, addr := range r.fleet.addrs {
		workerWG.Add(1)
		go func(addr string) {
			defer workerWG.Done()
			r.workerLoop(ctx, addr, p.Name(), recipe, q, d)
		}(addr)
	}

	// Stall watchdog: if no delivery advances while work remains, the
	// whole fleet is down — fail rather than spin on probes forever.
	watchdogDone := make(chan struct{})
	go func() {
		ticker := time.NewTicker(r.fleet.opts.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-watchdogDone:
				return
			case <-ctx.Done():
				d.fail(ctx.Err())
				return
			case <-ticker.C:
				next, last, failed := d.state()
				if failed || next >= d.total {
					return
				}
				if time.Since(last) > r.fleet.opts.StallTimeout {
					d.fail(fmt.Errorf("cluster: no progress for %v with %d/%d runs delivered; workers: %s",
						r.fleet.opts.StallTimeout, next, d.total, strings.Join(r.fleet.addrs, ", ")))
					return
				}
			}
		}
	}()

	err := d.wait()
	close(watchdogDone)
	q.close()
	cancel()
	workerWG.Wait()
	consumerWG.Wait()
	if err != nil {
		return err
	}
	return parent.Err() // the caller's cancellation, if it fired post-completion
}

// workerLoop drives one worker: probe readiness, steal a batch sized to
// the worker's idle capacity, dispatch it, and rebalance on failure.
func (r *fleetRunner) workerLoop(ctx context.Context, addr, program string, recipe core.Recipe, q *workQueue, d *delivery) {
	opts := r.fleet.opts
	for {
		if ctx.Err() != nil {
			return
		}
		rd, err := r.probe(ctx, addr)
		if err != nil || !rd.Ready() {
			if !sleepCtx(ctx, opts.ProbeInterval) {
				return
			}
			continue
		}
		// Backpressure-aware sizing: never hand a worker more than it has
		// idle slots for, so a loaded worker naturally steals less.
		n := rd.IdleSlots
		if n < 1 {
			n = 1
		}
		if n > opts.BatchSize {
			n = opts.BatchSize
		}
		seg, ok := q.take(n)
		if !ok {
			return
		}
		sctx, sp := obs.Start(ctx, "cluster.dispatch")
		sp.SetStr("worker", addr)
		sp.SetInt("runs", int64(len(seg.reqs)))
		sp.SetInt("first_index", int64(seg.reqs[0].Index))
		sp.SetInt("attempt", int64(seg.attempt))
		if seg.lastWorker != "" && seg.lastWorker != addr {
			// A rebalanced batch picked up by a different worker: the
			// steal the dispatch policy exists for.
			_, st := obs.Start(sctx, "cluster.steal")
			st.SetStr("from", seg.lastWorker)
			st.SetStr("to", addr)
			st.End()
		}
		remaining, err := r.runBatch(sctx, sp, addr, program, recipe, seg.reqs, d)
		sp.End()
		if err == nil {
			continue
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			d.fail(perm.err)
			return
		}
		if ctx.Err() != nil {
			d.fail(ctx.Err())
			return
		}
		// Transport failure: rebalance the undelivered remainder onto the
		// fleet and count the attempt.
		seg.attempt++
		seg.lastWorker = addr
		seg.reqs = remaining
		if r.cfg.OnRetry != nil {
			r.cfg.OnRetry(addr)
		}
		_, rb := obs.Start(ctx, "cluster.rebalance")
		rb.SetStr("worker", addr)
		rb.SetInt("remaining", int64(len(remaining)))
		rb.SetInt("attempt", int64(seg.attempt))
		rb.End()
		if seg.attempt >= opts.MaxAttempts {
			d.fail(fmt.Errorf("cluster: batch starting at run %d failed %d attempts (last worker %s): %w",
				firstIndex(seg.reqs), seg.attempt, addr, err))
			return
		}
		if len(seg.reqs) > 0 {
			q.requeue(seg)
		}
		// The failed worker sits out until a probe says ready again.
		if !sleepCtx(ctx, opts.ProbeInterval) {
			return
		}
	}
}

// probe fetches a worker's readiness.
func (r *fleetRunner) probe(ctx context.Context, addr string) (Readiness, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/readyz", nil)
	if err != nil {
		return Readiness{}, err
	}
	resp, err := r.fleet.opts.Client.Do(req)
	if err != nil {
		return Readiness{}, err
	}
	defer resp.Body.Close()
	var rd Readiness
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&rd); err != nil {
		return Readiness{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return rd, fmt.Errorf("cluster: %s readyz: %s", addr, rd.Status)
	}
	return rd, nil
}

// runBatch posts one segment to a worker and pumps its result stream into
// the delivery manager. It returns the undelivered remainder and an error
// when the stream breaks; a wrapped errPermanent means the failure is the
// program's, not the worker's, and must not be retried. sp is the
// coordinator-side dispatch span: when tracing is on it rides the batch
// as the worker's remote parent, and spans shipped back on the result
// stream are merged under it — shifted onto sp's start offset, which
// normalizes worker clocks to "the batch began at dispatch".
func (r *fleetRunner) runBatch(ctx context.Context, sp *obs.Span, addr, program string, recipe core.Recipe, reqs []core.RunRequest, d *delivery) ([]core.RunRequest, error) {
	br := BatchRequest{
		Protocol: ProtocolVersion,
		Program:  program,
		Rebase:   recipe.Rebase,
		Cost:     recipe.Cost,
		Device:   recipe.Device,
		Reqs:     make([]WireRequest, len(reqs)),
	}
	rec := obs.FromContext(ctx)
	if rec != nil && sp != nil {
		br.Trace = &obs.SpanContext{TraceID: sp.TraceID(), SpanID: sp.ID()}
	}
	for i, req := range reqs {
		br.Reqs[i] = WireRequest{Index: req.Index, Input: req.Input, Seed: req.Seed}
	}
	body, err := json.Marshal(br)
	if err != nil {
		return reqs, errPermanent{err}
	}

	// The per-result watchdog: a worker that stops producing results for
	// ResultTimeout is treated as dead and the batch rebalances.
	bctx, bcancel := context.WithCancel(ctx)
	defer bcancel()
	watchdog := time.AfterFunc(r.fleet.opts.ResultTimeout, bcancel)
	defer watchdog.Stop()

	req, err := http.NewRequestWithContext(bctx, http.MethodPost, addr+"/v1/record", bytes.NewReader(body))
	if err != nil {
		return reqs, errPermanent{err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.fleet.opts.Client.Do(req)
	if err != nil {
		return reqs, fmt.Errorf("cluster: %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		err := fmt.Errorf("cluster: %s rejected batch: %s: %s", addr, resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusBadRequest {
			return reqs, errPermanent{err} // protocol/program mismatch: retrying elsewhere won't help
		}
		return reqs, err
	}
	if v := resp.Header.Get(protocolHeader); v != "" && v != fmt.Sprint(ProtocolVersion) {
		return reqs, errPermanent{fmt.Errorf("cluster: %s answered protocol %s, want %d", addr, v, ProtocolVersion)}
	}

	want := make(map[int]bool, len(reqs))
	for _, req := range reqs {
		want[req.Index] = true
	}
	dec := gob.NewDecoder(resp.Body)
	for received := 0; received < len(reqs); received++ {
		var res WireResult
		if err := dec.Decode(&res); err != nil {
			return d.undone(reqs), fmt.Errorf("cluster: %s stream broke after %d/%d results: %w", addr, received, len(reqs), err)
		}
		watchdog.Reset(r.fleet.opts.ResultTimeout)
		if br.Trace != nil && (len(res.Spans) > 0 || len(res.Counters) > 0) {
			rec.MergeRemote(res.Spans, res.Counters, obs.MergeOptions{
				Trace:  br.Trace.TraceID,
				Parent: br.Trace.SpanID,
				Shift:  sp.StartOffset(),
				Proc:   procName(addr),
			})
		}
		if res.Err != "" {
			return reqs, errPermanent{fmt.Errorf("cluster: %s run %d: %s", addr, res.Index, res.Err)}
		}
		if !want[res.Index] {
			return reqs, errPermanent{fmt.Errorf("cluster: %s delivered run %d outside its batch", addr, res.Index)}
		}
		want[res.Index] = false
		if recipe.Harvest != nil {
			for _, k := range res.Kernels {
				recipe.Harvest(k)
			}
		}
		_, dsp := obs.Start(ctx, "wire.decode")
		dsp.SetInt("run_index", int64(res.Index))
		tr, err := trace.ReadGob(bytes.NewReader(res.Trace))
		dsp.End()
		if err != nil {
			return d.undone(reqs), fmt.Errorf("cluster: %s run %d: corrupt trace: %w", addr, res.Index, err)
		}
		if err := d.put(res.Index, tr); err != nil {
			return nil, errPermanent{err}
		}
		if r.cfg.OnRun != nil {
			r.cfg.OnRun(addr)
		}
	}
	return nil, nil
}

// procName renders a worker base URL as the process label used on its
// timeline track ("127.0.0.1:9201" rather than "http://127.0.0.1:9201").
func procName(addr string) string {
	addr = strings.TrimPrefix(addr, "http://")
	addr = strings.TrimPrefix(addr, "https://")
	return addr
}

func firstIndex(reqs []core.RunRequest) int {
	if len(reqs) == 0 {
		return -1
	}
	min := reqs[0].Index
	for _, r := range reqs[1:] {
		if r.Index < min {
			min = r.Index
		}
	}
	return min
}

// sleepCtx sleeps d or until ctx fires; it reports whether the full sleep
// elapsed.
func sleepCtx(ctx context.Context, dur time.Duration) bool {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
