package service

import (
	"sync"
	"time"

	"owl/internal/core"
	"owl/internal/mitigate"
)

// State is a job's lifecycle position.
type State string

// Job states: queued → recording → analyzing → done; failed or canceled
// terminate the pipeline early. A cache hit jumps straight to done.
const (
	StateQueued    State = "queued"
	StateRecording State = "recording"
	StateAnalyzing State = "analyzing"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether s ends the lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted detection.
type Job struct {
	ID      string
	Program string
	Opts    core.Options
	// Mitigate runs the automated repair loop instead of a plain
	// detection: detect, transform, verify, re-detect.
	Mitigate bool

	// cacheKey is the report's content address (cluster.Fingerprint),
	// computed once at submission; empty for mitigate jobs and when the
	// probe run failed.
	cacheKey string
	// timeout bounds the job's wall-clock; 0 inherits the manager default.
	timeout time.Duration

	mu         sync.Mutex
	state      State
	err        string
	created    time.Time
	started    time.Time
	finished   time.Time
	runsDone   int
	runsTotal  int // estimate; exact once the classes are known
	classes    int
	cacheHit   bool
	traceID    uint64 // span trace identity; 0 until the job starts
	report     *core.Report
	mitigation *mitigate.Result
	cancel     func()

	// Event stream: a bounded replay buffer plus live subscribers (the
	// /v1/jobs/{id}/events SSE handlers). lastProgressEv throttles
	// per-run progress events.
	events         []JobEvent
	eventSeq       int
	subs           map[int]chan JobEvent
	subSeq         int
	lastProgressEv int

	done chan struct{} // closed on any terminal transition
}

// JobEvent is one entry in a job's event stream, served over SSE by
// GET /v1/jobs/{id}/events. Type selects which fields are meaningful:
//
//	"phase"    State (and Error when failed) — a lifecycle transition
//	"progress" RunsDone / RunsTotal — recording progress
//	"evidence" Evidence — one statistical-channel trajectory sample
type JobEvent struct {
	Seq   int       `json:"seq"`
	Type  string    `json:"type"`
	Time  time.Time `json:"time"`
	State State     `json:"state,omitempty"`
	Error string    `json:"error,omitempty"`

	RunsDone  int `json:"runs_done,omitempty"`
	RunsTotal int `json:"runs_total,omitempty"`

	Evidence *core.EvidenceSample `json:"evidence,omitempty"`
}

// jobEventBuffer bounds the replay buffer; once full, the oldest events
// fall off (late subscribers of a long job lose early progress samples,
// never the terminal phase event).
const jobEventBuffer = 1024

// publishLocked appends an event to the replay buffer and fans it out to
// live subscribers without blocking (a stalled SSE client misses
// intermediate events rather than stalling detection). Callers hold j.mu.
func (j *Job) publishLocked(ev JobEvent) {
	j.eventSeq++
	ev.Seq = j.eventSeq
	ev.Time = time.Now()
	if len(j.events) >= jobEventBuffer {
		j.events = append(j.events[:0], j.events[1:]...)
	}
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe registers a live event subscriber and returns the replay
// history up to now. Events published after the snapshot arrive on ch;
// a slow receiver misses events rather than blocking the job. cancel
// unregisters (idempotent).
func (j *Job) Subscribe() (history []JobEvent, ch <-chan JobEvent, cancel func()) {
	c := make(chan JobEvent, 64)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[int]chan JobEvent)
	}
	j.subSeq++
	id := j.subSeq
	j.subs[id] = c
	history = append([]JobEvent(nil), j.events...)
	j.mu.Unlock()
	return history, c, func() {
		j.mu.Lock()
		delete(j.subs, id)
		j.mu.Unlock()
	}
}

// JobView is the JSON shape of a job's status.
type JobView struct {
	ID        string    `json:"id"`
	Program   string    `json:"program"`
	State     State     `json:"state"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	RunsDone  int       `json:"runs_done"`
	RunsTotal int       `json:"runs_total"`
	Classes   int       `json:"classes,omitempty"`
	CacheHit  bool      `json:"cache_hit,omitempty"`
	// Leaks summarizes the report once done; fetch /jobs/{id}/report for
	// the full result.
	Leaks *int `json:"leaks,omitempty"`
	// Statistical-evidence outcome, populated once done for tvla/both
	// jobs: the channel mode, whether the sequential-testing controller
	// stopped recording early, and how many budgeted runs it saved.
	EvidenceMode string `json:"evidence_mode,omitempty"`
	EarlyStopped bool   `json:"early_stopped,omitempty"`
	RunsSaved    int    `json:"runs_saved,omitempty"`
	// Cost-channel outcome, populated once done for jobs that collected
	// the microarchitectural cost observables: the channel list and the
	// number of cost-channel leak sites.
	Channels  []string `json:"channels,omitempty"`
	CostLeaks int      `json:"cost_leaks,omitempty"`
	// Mitigation summarizes an automated repair once done; fetch
	// /jobs/{id}/mitigation for the full transform log and site diff.
	Mitigation *MitigationView `json:"mitigation,omitempty"`
}

// MitigationView is the JSON summary of a completed repair.
type MitigationView struct {
	SitesBefore int `json:"sites_before"`
	SitesAfter  int `json:"sites_after"`
	Eliminated  int `json:"eliminated"`
	New         int `json:"new"`
	Applied     int `json:"transforms_applied"`
	Refused     int `json:"transforms_refused"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Program:   j.Program,
		State:     j.state,
		Error:     j.err,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		RunsDone:  j.runsDone,
		RunsTotal: j.runsTotal,
		Classes:   j.classes,
		CacheHit:  j.cacheHit,
	}
	// runsTotal is an estimate (a mitigate job's two detection passes can
	// classify into different numbers of classes); never report a total
	// below the runs already executed.
	if v.RunsDone > v.RunsTotal {
		v.RunsTotal = v.RunsDone
	}
	if j.report != nil {
		n := len(j.report.Leaks)
		v.Leaks = &n
		v.EvidenceMode = j.report.EvidenceMode
		v.EarlyStopped = j.report.EarlyStopped
		v.RunsSaved = j.report.RunsSaved()
		v.Channels = j.report.Channels
		v.CostLeaks = j.report.Count(core.CostLeak)
	}
	if j.mitigation != nil {
		v.Mitigation = &MitigationView{
			SitesBefore: len(j.mitigation.BeforeSites),
			SitesAfter:  len(j.mitigation.AfterSites),
			Eliminated:  len(j.mitigation.Eliminated),
			New:         len(j.mitigation.New),
			Applied:     j.mitigation.Applied(),
			Refused:     j.mitigation.Refused(),
		}
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Report returns the detection report, or nil while the job is running
// or after a failure.
func (j *Job) Report() *core.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Mitigation returns the repair result for a mitigate job, or nil while
// the job is running, after a failure, or for plain detection jobs.
func (j *Job) Mitigation() *mitigate.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.mitigation
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// TraceID returns the job's span trace identity — the key into the
// manager's flight recorder — or 0 for a job that never started
// executing (still queued, or served from the result cache).
func (j *Job) TraceID() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceID
}

// setState transitions the job and publishes the phase event. It
// returns the state left behind so callers can move gauges.
func (j *Job) setState(s State) (prev State, changed bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == s || j.state.Terminal() {
		return j.state, false
	}
	prev = j.state
	j.state = s
	j.publishLocked(JobEvent{
		Type:      "phase",
		State:     s,
		Error:     j.err,
		RunsDone:  j.runsDone,
		RunsTotal: j.runsTotal,
	})
	if s.Terminal() {
		j.finished = time.Now()
		close(j.done)
	}
	return prev, true
}
