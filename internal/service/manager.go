package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"owl/internal/cluster"
	"owl/internal/core"
	"owl/internal/experiments"
	"owl/internal/mitigate"
	"owl/internal/obs"
	olog "owl/internal/obs/log"
)

// Config sizes a Manager. The zero value is usable: one job at a time,
// a GOMAXPROCS-wide recording pool, a 64-deep queue, a 128-entry cache.
type Config struct {
	// Pool records executions for every job; nil builds a GOMAXPROCS pool.
	Pool *Pool
	// JobWorkers is the number of jobs detected concurrently (min 1).
	JobWorkers int
	// QueueDepth bounds the backlog; Submit fails when full (min 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity (min 128; negative
	// disables caching).
	CacheSize int
	// DefaultTimeout bounds each job's wall-clock when the submission
	// does not set one; 0 means no timeout.
	DefaultTimeout time.Duration
	// Fleet, when non-nil, records detection jobs on a cluster of
	// owlworker nodes instead of the local pool, and consults the fleet's
	// shared content-addressed report cache before running. Mitigate jobs
	// always stay on the local pool: the repair loop re-detects hardened
	// kernel variants that remote registries don't have.
	Fleet *cluster.Fleet
	// Logger receives structured job-lifecycle records, stamped with each
	// job's trace identity (see internal/obs/log). Nil discards them.
	Logger *slog.Logger
}

// JobRequest is one detection submission. Zero-valued fields inherit the
// paper defaults (core.DefaultOptions), except the run counts which
// default to the CLI's quicker 40/40. Negative run counts are rejected
// with core.ErrInvalidRunCount rather than silently replaced.
type JobRequest struct {
	Program    string   `json:"program"`
	FixedRuns  int      `json:"fixed_runs,omitempty"`
	RandomRuns int      `json:"random_runs,omitempty"`
	Confidence float64  `json:"confidence,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	UseWelch   bool     `json:"welch,omitempty"`
	NoRebase   bool     `json:"no_rebase,omitempty"`
	Timeout    Duration `json:"timeout,omitempty"`
	// Evidence selects and configures the evidence channel(s): mode
	// "diff" (default), "tvla", or "both", the TVLA threshold, MI binning,
	// and the sequential early-stop policy. Absent fields inherit the
	// detector defaults.
	Evidence *core.EvidenceConfig `json:"evidence,omitempty"`
	// Mitigate runs the automated leakage-repair loop after detection:
	// the job's report becomes the hardened program's re-detection, and
	// /v1/jobs/{id}/mitigation serves the transform log and site diff.
	// Mitigate jobs bypass the result cache on both ends (the cache key
	// does not include the flag, and the before/after pair is not a plain
	// detection result).
	Mitigate bool `json:"mitigate,omitempty"`
}

// Duration is a time.Duration accepting "30s"-style JSON strings.
type Duration time.Duration

// UnmarshalJSON parses either a duration string or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		parsed, err := time.ParseDuration(string(b[1 : len(b)-1]))
		if err != nil {
			return err
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if _, err := fmt.Sscan(string(b), &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", time.Duration(d))), nil
}

// ErrQueueFull rejects submissions when the backlog is at capacity.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining rejects submissions during shutdown.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// Manager owns the job queue, the worker pool, the result cache, and the
// metrics — the execution engine behind cmd/owld.
type Manager struct {
	cfg      Config
	pool     *Pool
	cache    *cluster.ReportCache
	metrics  *Metrics
	recorder *obs.Recorder
	log      *slog.Logger
	targets  map[string]experiments.Target

	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	finished []string // terminal jobs still kept, oldest first
	seq      int
	started  bool
	draining bool

	workerWG sync.WaitGroup
}

// NewManager validates cfg, resolves the workload registry, and returns
// a manager. Call Start to begin consuming the queue.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Pool == nil {
		cfg.Pool = NewPool(0)
	}
	if cfg.JobWorkers < 1 {
		cfg.JobWorkers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	targets, err := experiments.FullSuite()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]experiments.Target, len(targets))
	for _, t := range targets {
		byName[t.Program.Name()] = t
	}
	logger := cfg.Logger
	if logger == nil {
		logger = olog.Nop()
	}
	return &Manager{
		cfg:      cfg,
		pool:     cfg.Pool,
		cache:    cluster.NewReportCache(cfg.CacheSize),
		metrics:  NewMetrics(),
		recorder: obs.NewRecorder(0),
		log:      logger,
		targets:  byName,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
	}, nil
}

// Metrics exposes the manager's counters.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Recorder exposes the manager's span flight recorder: every job's
// pipeline spans land here, keyed by the job's trace ID.
func (m *Manager) Recorder() *obs.Recorder { return m.recorder }

// Readiness snapshots the daemon's load in the cluster-wide /readyz
// shape: the ready bit plus queue depth and recording-slot occupancy,
// the inputs of a coordinator's backpressure-aware batch sizing.
func (m *Manager) Readiness() cluster.Readiness {
	m.mu.Lock()
	started, draining := m.started, m.draining
	m.mu.Unlock()
	r := cluster.Readiness{
		Status:      "ready",
		QueueDepth:  len(m.queue),
		ActiveSlots: m.pool.Active(),
		IdleSlots:   m.pool.Idle(),
		Slots:       m.pool.Workers(),
	}
	switch {
	case draining:
		r.Status = "draining"
	case !started:
		r.Status = "starting"
	}
	return r
}

// Programs lists the workload names the manager can detect.
func (m *Manager) Programs() []string {
	names := make([]string, 0, len(m.targets))
	for name := range m.targets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Start launches the job workers.
func (m *Manager) Start() {
	m.mu.Lock()
	m.started = true
	m.mu.Unlock()
	for i := 0; i < m.cfg.JobWorkers; i++ {
		m.workerWG.Add(1)
		go func() {
			defer m.workerWG.Done()
			for job := range m.queue {
				m.runJob(job)
			}
		}()
	}
}

// options materializes the detector options for a request. Zero run
// counts inherit the service default (40/40); negative counts are a
// request error, not something to paper over.
func (m *Manager) options(req JobRequest) (core.Options, error) {
	opts := core.DefaultOptions()
	opts.FixedRuns = 40
	opts.RandomRuns = 40
	if req.FixedRuns < 0 || req.RandomRuns < 0 {
		return core.Options{}, fmt.Errorf("%w (got %d fixed / %d random)",
			core.ErrInvalidRunCount, req.FixedRuns, req.RandomRuns)
	}
	if req.FixedRuns > 0 {
		opts.FixedRuns = req.FixedRuns
	}
	if req.RandomRuns > 0 {
		opts.RandomRuns = req.RandomRuns
	}
	if req.Confidence > 0 {
		opts.Confidence = req.Confidence
	}
	if req.Seed != 0 {
		opts.Seed = req.Seed
	}
	opts.UseWelch = req.UseWelch
	opts.Rebase = !req.NoRebase
	if req.Evidence != nil {
		opts.Evidence = *req.Evidence
	}
	return opts, nil
}

// Submit validates req and enqueues a job. A result-cache hit returns a
// job already in StateDone carrying the cached report.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	target, ok := m.targets[req.Program]
	if !ok {
		return nil, fmt.Errorf("service: unknown program %q", req.Program)
	}
	opts, err := m.options(req)
	if err != nil {
		return nil, err
	}
	if _, err := core.NewDetector(opts); err != nil {
		return nil, err
	}
	// The report-cache key is the result's content address, shared with
	// the fleet cache. A probe failure leaves it empty: a miss, and no
	// fill. Mitigate jobs bypass the caches.
	var cacheKey string
	if !req.Mitigate {
		cacheKey, _ = cluster.Fingerprint(context.Background(), target.Program, target.Inputs, opts)
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.seq++
	job := &Job{
		ID:       fmt.Sprintf("j%06d", m.seq),
		Program:  target.Program.Name(),
		Opts:     opts,
		Mitigate: req.Mitigate,
		cacheKey: cacheKey,
		state:    StateQueued,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	// Estimate until classification refines it: the user-input recordings
	// plus one class of fixed+random evidence. A mitigate job detects
	// twice (before and after hardening).
	job.runsTotal = len(target.Inputs) + opts.FixedRuns + opts.RandomRuns
	if job.Mitigate {
		job.runsTotal *= 2
	}
	job.timeout = time.Duration(req.Timeout)
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.mu.Unlock()
	m.metrics.JobTransition("", StateQueued)

	if !job.Mitigate {
		if cached, ok := m.cache.Get(cacheKey); ok {
			m.metrics.CacheHits.Add(1)
			job.mu.Lock()
			job.cacheHit = true
			job.report = cached
			job.started = job.created
			job.runsDone, job.runsTotal = 0, 0
			job.classes = cached.Classes
			job.mu.Unlock()
			m.transition(job, StateDone)
			return job, nil
		}
		m.metrics.CacheMisses.Add(1)
	}

	select {
	case m.queue <- job:
		m.log.LogAttrs(context.Background(), slog.LevelInfo, "job queued",
			slog.String("job_id", job.ID),
			slog.String("program", job.Program))
		return job, nil
	default:
		m.failJob(job, ErrQueueFull)
		return nil, ErrQueueFull
	}
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel aborts a job: a queued job terminates immediately, a running
// job's context is canceled and its workers unwind between executions.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("service: no job %q", id)
	}
	job.mu.Lock()
	cancel := job.cancel
	job.mu.Unlock()
	if cancel != nil {
		cancel()
		return nil
	}
	m.transition(job, StateCanceled)
	return nil
}

// runJob executes one dequeued job end to end.
func (m *Manager) runJob(job *Job) {
	if job.State() != StateQueued {
		return // canceled while queued
	}
	ctx := context.Background()
	var cancelTimeout context.CancelFunc = func() {}
	timeout := job.timeout
	if timeout == 0 {
		timeout = m.cfg.DefaultTimeout
	}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancelTimeout()
	defer cancel()

	// The job's root span: every pipeline, kernel, and merge span of this
	// detection descends from it, so /v1/jobs/{id}/trace can carve the
	// job's timeline out of the shared flight recorder by trace ID.
	ctx = obs.WithRecorder(ctx, m.recorder)
	ctx, root := obs.Start(ctx, "job")
	root.SetStr("job_id", job.ID)
	root.SetStr("program", job.Program)

	job.mu.Lock()
	job.started = time.Now()
	job.cancel = cancel
	job.traceID = root.TraceID()
	job.mu.Unlock()
	m.log.LogAttrs(ctx, slog.LevelInfo, "job started",
		slog.String("job_id", job.ID),
		slog.String("program", job.Program),
		slog.Bool("mitigate", job.Mitigate))

	err := m.execute(ctx, job)
	// The job span ends before the terminal transition, so whoever sees
	// the job finish also finds it in the span latency histograms.
	root.End()
	switch {
	case errors.Is(err, context.Canceled):
		m.finish(job, StateCanceled)
	case err != nil:
		m.failJob(job, err)
	default:
		m.finish(job, StateDone)
	}

	v := job.View()
	attrs := []slog.Attr{
		slog.String("job_id", job.ID),
		slog.String("state", string(v.State)),
		slog.Int("runs", v.RunsDone),
	}
	if v.Leaks != nil {
		attrs = append(attrs, slog.Int("leaks", *v.Leaks))
	}
	if v.Error != "" {
		attrs = append(attrs, slog.String("error", v.Error))
	}
	m.log.LogAttrs(ctx, slog.LevelInfo, "job finished", attrs...)
}

// execute runs a started job's detection (or repair) under ctx and
// stores its report on the job; runJob makes the terminal transition
// from the returned error.
func (m *Manager) execute(ctx context.Context, job *Job) error {
	target := m.targets[job.Program]
	opts := job.Opts
	fleet := m.cfg.Fleet
	useFleet := fleet != nil && !job.Mitigate
	if useFleet {
		opts.Runner = fleet.Runner(cluster.RunnerConfig{
			OnRun: func(worker string) {
				m.metrics.Executions.Add(1)
				m.metrics.WorkerRun(worker)
				job.mu.Lock()
				job.runsDone++
				job.mu.Unlock()
			},
			OnRetry: m.metrics.DispatchRetry,
		})
	} else {
		opts.Runner = m.pool.Runner(func() {
			m.metrics.Executions.Add(1)
			job.mu.Lock()
			job.runsDone++
			job.mu.Unlock()
		})
	}
	opts.OnProgress = func(p core.Progress) {
		job.mu.Lock()
		if !job.Mitigate {
			// A mitigate job detects twice; its runsDone advances via the
			// pool callback instead, which stays monotonic across passes.
			job.runsDone = p.Runs
		}
		if p.Classes > 0 && job.classes != p.Classes {
			job.classes = p.Classes
			// Exact expected total: user inputs + per-class evidence.
			job.runsTotal = len(target.Inputs) + p.Classes*(opts.FixedRuns+opts.RandomRuns)
			if job.Mitigate {
				job.runsTotal *= 2
			}
		}
		// Throttled progress events: one per stride (or on completion of
		// the expected total), so the SSE stream scales with job size
		// without an event per run.
		const progressStride = 8
		if job.runsDone >= job.lastProgressEv+progressStride ||
			(job.runsTotal > 0 && job.runsDone == job.runsTotal && job.runsDone > job.lastProgressEv) {
			job.lastProgressEv = job.runsDone
			job.publishLocked(JobEvent{
				Type:      "progress",
				State:     job.state,
				RunsDone:  job.runsDone,
				RunsTotal: job.runsTotal,
			})
		}
		job.mu.Unlock()
		switch p.Phase {
		case core.PhaseClassify, core.PhaseRecord:
			m.transition(job, StateRecording)
		case core.PhaseAnalyze:
			m.transition(job, StateAnalyzing)
		}
	}
	// Evidence-trajectory samples (tvla/both jobs) feed the SSE stream so
	// a dashboard can watch per-site t-statistics converge live.
	opts.OnEvidence = func(s core.EvidenceSample) {
		job.mu.Lock()
		job.publishLocked(JobEvent{
			Type:     "evidence",
			State:    job.state,
			Evidence: &s,
		})
		job.mu.Unlock()
	}

	if job.Mitigate {
		// The repair loop owns both detection passes and the differential
		// equivalence checks; its spans (mitigate.ifconv, mitigate.oblivious,
		// mitigate.verify) descend from the job's root span. The hardened
		// program's re-detection becomes the job's report. Neither side of
		// the pair enters the plain-detection result cache.
		res, err := mitigate.Repair(ctx, target.Program, target.Inputs, target.Gen, mitigate.Options{Detector: opts})
		if err != nil {
			return err
		}
		job.mu.Lock()
		job.report = res.After
		job.mitigation = res
		job.mu.Unlock()
		return nil
	}

	// Fleet jobs consult the shared content-addressed cache first: any
	// node that already computed this (kernel hash, options) result
	// answers for the whole fleet. A job without a key just runs.
	key := job.cacheKey
	if useFleet && key != "" {
		if rep, ok := fleet.CacheGet(ctx, key); ok {
			m.metrics.CacheHits.Add(1)
			job.mu.Lock()
			job.cacheHit = true
			job.report = rep
			job.classes = rep.Classes
			job.mu.Unlock()
			return nil
		}
	}

	det, err := core.NewDetector(opts)
	if err != nil {
		return err
	}
	report, err := det.DetectContext(ctx, target.Program, target.Inputs, target.Gen)
	if err != nil {
		return err
	}

	job.mu.Lock()
	job.report = report
	job.mu.Unlock()
	if key != "" {
		m.cache.Add(key, report)
		if useFleet {
			fleet.CachePut(ctx, key, report)
		}
	}
	return nil
}

// keptJobs is how many terminal jobs the manager keeps for Get and Jobs.
// Older ones are forgotten, so a long-running daemon's job table stays
// bounded: a finished job holds its report until it is evicted.
const keptJobs = 64

// transition moves a job to state s and the jobs gauge with it. A job
// that becomes terminal joins the kept terminal jobs, evicting the oldest
// beyond keptJobs.
func (m *Manager) transition(job *Job, s State) {
	prev, ok := job.setState(s)
	if !ok {
		return
	}
	m.metrics.JobTransition(prev, s)
	if !s.Terminal() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, job.ID)
	if len(m.finished) <= keptJobs {
		return
	}
	old := m.finished[0]
	m.finished = slices.Delete(m.finished, 0, 1)
	delete(m.jobs, old)
	m.order = slices.DeleteFunc(m.order, func(id string) bool { return id == old })
}

// finish makes a job's terminal transition and folds its report, if
// any, into the cross-job counters.
func (m *Manager) finish(job *Job, s State) {
	m.transition(job, s)
	rep := job.Report()
	if rep == nil {
		return
	}
	m.metrics.JobPeakRAM.Observe(rep.Stats.PeakAllocBytes)
	if rep.EarlyStopped {
		m.metrics.EarlyStops.Add(1)
	}
	if saved := rep.RunsSaved(); saved > 0 {
		m.metrics.RunsSaved.Add(int64(saved))
	}
	if n := rep.Count(core.CostLeak); n > 0 {
		m.metrics.CostLeaks.Add(int64(n))
	}
}

// failJob marks a job failed.
func (m *Manager) failJob(job *Job, err error) {
	job.mu.Lock()
	job.err = err.Error()
	job.mu.Unlock()
	m.finish(job, StateFailed)
}

// Drain gracefully shuts the manager down: new submissions are rejected,
// queued and running jobs finish normally. If ctx expires first, the
// remaining jobs are canceled before Drain returns.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.mu.Unlock()
	close(m.queue)

	finished := make(chan struct{})
	go func() {
		m.workerWG.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		for _, job := range m.Jobs() {
			if !job.State().Terminal() {
				_ = m.Cancel(job.ID)
			}
		}
		<-finished
		return ctx.Err()
	}
}
