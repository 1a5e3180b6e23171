package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/experiments"
	"owl/internal/service"
)

// jobType is one detection configuration: a program, its runs per
// regime, and its evidence channels.
type jobType struct {
	label    string
	program  string
	runs     int
	evidence core.EvidenceConfig
}

// jobConfig is a job type with a detection seed, the unit the
// correctness oracle keeps one reference digest for.
type jobConfig struct {
	jobType
	seed int64
}

func (c jobConfig) key() string { return fmt.Sprintf("%s#%d", c.label, c.seed) }

// options are the detector options of c, exactly as owld's Manager builds
// them for c's request.
func (c jobConfig) options() core.Options {
	o := core.DefaultOptions()
	o.FixedRuns, o.RandomRuns = c.runs, c.runs
	o.Seed = c.seed
	o.Evidence = c.evidence
	return o
}

func (c jobConfig) request() service.JobRequest {
	ev := c.evidence
	return service.JobRequest{Program: c.program, FixedRuns: c.runs, RandomRuns: c.runs, Seed: c.seed, Evidence: &ev}
}

func (c jobConfig) String() string {
	mode := c.evidence.Mode
	if mode == "" {
		mode = core.EvidenceDiff
	}
	s := fmt.Sprintf("%s %s %d+%d", c.program, mode, c.runs, c.runs)
	if c.evidence.CostEnabled() {
		s += " +cost"
	}
	if c.evidence.EarlyStop.Enabled {
		s += " early-stop"
	}
	return s
}

// workload is one benchmark workload.
type workload struct {
	name, why string
	types     []jobType
	seeds     int  // detection seeds per job type
	workers   int  // Options.Workers of every timed direct detection
	service   bool // detections are jobs submitted to owld's Manager
}

const aes128 = "libgpucrypto/aes128"

var (
	evidenceDiff = core.EvidenceConfig{}
	evidenceCost = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
	evidenceStop = core.EvidenceConfig{Mode: core.EvidenceBoth, EarlyStop: core.EarlyStopPolicy{Enabled: true}}
)

// workloads are the benchmark's workloads; the package comment gives the
// reason for each.
var workloads = []*workload{
	{
		name:    "aes-diff",
		why:     "Table IV program on the paper's diff/KS pipeline; kernel runs, merge and analyze all weigh, so no single layer dominates",
		types:   []jobType{{"aes-diff", aes128, 40, evidenceDiff}},
		seeds:   3,
		workers: 1,
	},
	{
		name:    "jpeg-w2",
		why:     "interpreter-bound nvjpeg encode recorded by 2 workers: the parallel reorder-window path; analyze is small",
		types:   []jobType{{"jpeg-w2", "nvjpeg/encode", 20, evidenceDiff}},
		seeds:   3,
		workers: 2,
	},
	{
		name:    "aes-cost",
		why:     "aes128 with TVLA and cost channels: evidence merge and tests dominate, via the statistical recording loop",
		types:   []jobType{{"aes-cost", aes128, 20, evidenceCost}},
		seeds:   3,
		workers: 1,
	},
	{
		name: "owld-mix",
		why:  "owld Manager with 2 clients over 4 job types, a quarter of them repeats: the only user of pool, coalescer and result cache",
		// Run counts even out the job times (about 250 ms each, aes-stop
		// about twice that), so that no latency percentile falls on the
		// edge between a cheap and a costly job type.
		types: []jobType{
			{"aes-diff", aes128, 20, evidenceDiff},
			{"aes-stop", aes128, 48, evidenceStop},
			{"tokenize", "media/tokenize", 400, evidenceDiff},
			{"shmem-cost", "workloads/shmem-leaky", 800, evidenceCost},
		},
		seeds:   3,
		service: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pool returns w's job configurations in the order requests cycle
// through them: the job types take turns in a fixed order, so every seed
// sees the same mix of job types side by side, and each configuration's
// detection seed derives from seed. The tiny scale, for tests, shrinks
// every detection to 2+2 runs.
func (w *workload) pool(seed int64, tiny bool) []jobConfig {
	rng := rand.New(rand.NewSource(seed))
	seeds := w.seeds
	if tiny && !w.service {
		seeds = 2
	}
	var out []jobConfig
	for i := 0; i < seeds; i++ {
		for _, t := range w.types {
			if tiny {
				t.runs = 2
			}
			out = append(out, jobConfig{t, 1 + rng.Int63n(1<<40)})
		}
	}
	return out
}

// Result-cache shape of owld-mix. A repeat is the request made
// repeatDistance positions earlier and is submitted only once that
// request has ended, so until its lookup at most repeatDistance other
// keys are used after it (the requests between, and one the other client
// may have finished meanwhile) and a cache of mixCacheSize holds it.
// Between two fresh requests for one configuration the other
// configurations are each requested fresh once: at most 3 of those come
// before the configuration's own repeat, which refreshes it, and one may
// still be running, so len(pool)-5 keys are stored after its last use and
// with len(pool) ≥ mixCacheSize+6 fresh requests miss.
const (
	repeatDistance = 5
	mixCacheSize   = 6
)

// mixRequest returns the configuration of the i-th owld-mix request and
// whether it repeats an earlier one. Every fourth request repeats the one
// made five positions earlier — the nearest one at least four back that
// is not itself a repeat, since four back would repeat a repeat and
// collapse the mix onto a few configurations. Every other request takes
// the pool's next configuration.
func mixRequest(pool []jobConfig, i int) (jobConfig, bool) {
	repeat := i%4 == 3 && i >= repeatDistance
	if repeat {
		i -= repeatDistance
	}
	repeats := max(0, (i-4)/4) // positions 7, 11, ... before i
	return pool[(i-repeats)%len(pool)], repeat
}

// reference is the canonical form of a report that the correctness
// oracle compares: a hash of the report as the golden-report tests pin
// it, with the run-dependent timing and memory fields zeroed, and each
// leak's mutual information apart. Mutual information is compared to a
// relative 1e-9 rather than exactly, because the estimator sums its
// histogram cells in map order (stats.MIEstimator.Bits), so identical
// detections can differ in its last bit. The hash prints the report with
// %+v rather than as JSON: a statistical verdict on a site with no
// variance carries an infinite t, which JSON cannot encode, and %v prints
// every float exactly.
type reference struct {
	digest string
	mi     []float64
}

func canonical(rep *core.Report) reference {
	r := *rep
	r.Stats.TraceCollectTime = 0
	r.Stats.EvidenceTime = 0
	r.Stats.TestTime = 0
	r.Stats.Total = 0
	r.Stats.PeakAllocBytes = 0
	r.Leaks = append([]core.Leak(nil), rep.Leaks...)
	var ref reference
	for i := range r.Leaks {
		ref.mi = append(ref.mi, r.Leaks[i].MI)
		r.Leaks[i].MI = 0
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	ref.digest = hex.EncodeToString(sum[:])
	return ref
}

func (r reference) matches(o reference) bool {
	if r.digest != o.digest || len(r.mi) != len(o.mi) {
		return false
	}
	for i, v := range r.mi {
		if math.Abs(v-o.mi[i]) > 1e-9*math.Max(math.Abs(v), math.Abs(o.mi[i])) {
			return false
		}
	}
	return true
}

// env is one set-up workload: its registry entries, the reference digest
// of every pool configuration, and, for owld-mix, a started Manager.
type env struct {
	w       *workload
	pool    []jobConfig
	targets map[string]experiments.Target
	refs    map[string]reference
	mgr     *service.Manager
}

// setUp prepares w reps times and returns the last preparation with the
// median set-up time in seconds. One preparation resolves the programs
// from the registry; runs one direct, single-worker detection per pool
// configuration, whose report is the reference every timed result is
// checked against and which warms every code path the timed region runs;
// warms the 2-worker recording path where the timed detections use it;
// and starts owld's Manager. References must repeat across preparations.
// Calibrations before and after each preparation give its reference time.
func setUp(w *workload, pool []jobConfig, reps int) (*env, setupTime, error) {
	var e *env
	var wall, ref []float64
	before := calibrate()
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		next, err := prepare(w, pool)
		s := time.Since(start).Seconds()
		after := calibrate()
		wall = append(wall, s)
		ref = append(ref, s*refScale(before, after))
		before = after
		if err == nil && e != nil {
			for k, ref := range e.refs {
				if !next.refs[k].matches(ref) {
					err = fmt.Errorf("reference detection %s is not deterministic", k)
				}
			}
		}
		if e != nil {
			e.close()
		}
		if err != nil {
			if next != nil {
				next.close()
			}
			return nil, setupTime{}, err
		}
		e = next
	}
	return e, setupTime{wall: median(wall), ref: median(ref)}, nil
}

// setupTime is the median set-up time in seconds, wall and reference.
type setupTime struct{ wall, ref float64 }

func prepare(w *workload, pool []jobConfig) (*env, error) {
	e := &env{w: w, pool: pool, targets: map[string]experiments.Target{}, refs: map[string]reference{}}
	for _, c := range pool {
		if _, ok := e.targets[c.program]; ok {
			continue
		}
		t, err := experiments.FindTarget(c.program)
		if err != nil {
			return nil, err
		}
		e.targets[c.program] = t
	}
	// owld-mix has by far the most configurations; its references run on
	// the same 2 goroutines its clients use.
	workers := 1
	if w.service {
		workers = 2
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pool); i = int(next.Add(1) - 1) {
				c := pool[i]
				ref, err := e.reference(c)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				e.refs[c.key()] = ref
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if w.workers > 1 {
		c := pool[0]
		opts := c.options()
		opts.Workers = w.workers
		rep, err := e.detect(c, opts, e.targets[c.program].Program)
		if err == nil {
			err = e.check(c, rep)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if w.service {
		m, err := service.NewManager(service.Config{
			Pool:       service.NewPool(2),
			JobWorkers: 2,
			CacheSize:  mixCacheSize,
		})
		if err != nil {
			return nil, err
		}
		m.Start()
		e.mgr = m
	}
	return e, nil
}

func (e *env) reference(c jobConfig) (reference, error) {
	opts := c.options()
	opts.Workers = 1
	rep, err := e.detect(c, opts, e.targets[c.program].Program)
	if err != nil {
		return reference{}, fmt.Errorf("reference detection %s: %w", c.key(), err)
	}
	return canonical(rep), nil
}

func (e *env) detect(c jobConfig, opts core.Options, prog cuda.Program) (*core.Report, error) {
	det, err := core.NewDetector(opts)
	if err != nil {
		return nil, err
	}
	t := e.targets[c.program]
	return det.Detect(prog, t.Inputs, t.Gen)
}

// check compares a timed result with its reference detection.
func (e *env) check(c jobConfig, rep *core.Report) error {
	if !canonical(rep).matches(e.refs[c.key()]) {
		return fmt.Errorf("%s (%v): report differs from its reference detection", c.key(), c)
	}
	return nil
}

// close stops owld's Manager, waiting for its workers to exit.
func (e *env) close() {
	if e.mgr != nil {
		_ = e.mgr.Drain(context.Background()) // idle by now: Drain only joins the workers
	}
}

// maxMeasure caps one measured region whatever its minimum sample count,
// so a run ends well within the benchmark's time limit on a slow host.
const maxMeasure = 75 * time.Second

// detections is what detectLoop measured.
type detections struct {
	elapsed           time.Duration
	attempted, failed int
	runs              int       // traced runs recorded, from the reports
	wall, wait        []float64 // ms per detection: request to report, request to Detect
	ref               []float64 // wall in reference ms
	plain, traced     []float64 // ms per detection: Detect call, by kind
	calib             []float64 // ms per calibration
	layers            map[string][]float64
}

// detectLoop runs direct detections in a closed loop, one at a time,
// cycling through the pool, until window has passed and at least minN
// detections completed, and calibrates before the first detection and
// after each. With trace set, each configuration runs twice in a row,
// first plain, then traced by a probe and replayed untraced afterwards, so
// the two kinds see the same inputs and conditions and their difference
// is the tracing overhead. owld-mix detections record on a 2-slot owld
// pool, the path its jobs take.
func (e *env) detectLoop(window time.Duration, minN int, trace bool) (*detections, error) {
	var runner core.Runner
	if e.w.service {
		runner = service.NewPool(2).Runner(nil)
	}
	res := &detections{layers: map[string][]float64{}}
	cal := calibrate()
	res.calib = append(res.calib, ms(cal))
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); (el >= window && res.attempted >= minN) || el >= maxMeasure {
			break
		}
		k := i
		if trace {
			k = i / 2 // each configuration once plain, then once traced
		}
		c := e.pool[k%len(e.pool)]
		opts := c.options()
		if runner != nil {
			opts.Runner = runner
		} else {
			opts.Workers = e.w.workers
		}
		prog := e.targets[c.program].Program
		var pr *probe
		var before memCounters
		if trace && i%2 == 1 {
			pr = newProbe(prog)
			prog = pr
			opts.OnProgress = pr.onProgress
			before = readMem()
		}
		t0 := time.Now()
		det, err := core.NewDetector(opts)
		t1 := time.Now()
		var rep *core.Report
		if err == nil {
			t := e.targets[c.program]
			rep, err = det.Detect(prog, t.Inputs, t.Gen)
		}
		t2 := time.Now()
		after := calibrate()
		scale := refScale(cal, after)
		cal = after
		res.calib = append(res.calib, ms(after))
		res.attempted++
		if err == nil {
			err = e.check(c, rep)
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "owlperf: %s detection %d: %v\n", e.w.name, i, err)
			continue
		}
		res.runs += rep.Inputs + rep.Stats.EvidenceTraces
		res.wall = append(res.wall, ms(t2.Sub(t0)))
		res.ref = append(res.ref, ms(t2.Sub(t0))*scale)
		res.wait = append(res.wait, ms(t1.Sub(t0)))
		if pr == nil {
			res.plain = append(res.plain, ms(t2.Sub(t1)))
			continue
		}
		res.traced = append(res.traced, ms(t2.Sub(t1)))
		td := tracedDetection{begin: t0, end: t2, before: before, mem: readMem(), report: rep}
		if td.replayDur, td.replayInstr, err = pr.replay(opts.Device); err != nil {
			return nil, err
		}
		for name, v := range pr.layers(td) {
			res.layers[name] = append(res.layers[name], v)
		}
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// jobs is what serviceLoop measured.
type jobs struct {
	elapsed           time.Duration
	refElapsed        float64 // seconds of the loop in reference time
	attempted, failed int
	executions, hits  int64                // Manager counters over the loop
	latency, ref      []float64            // ms per job, Submit to end: wall and reference
	wait, run         []float64            // ms from the job view: queue wait, execution
	runByType         map[string][]float64 // run of the jobs not served from the cache, per job type
	calib             []float64            // ms per calibration
}

// serviceLoop drives owld's Manager with 2 closed-loop clients: each
// claims the next request position, submits mixRequest's configuration,
// waits for the job to end, checks its report against the reference,
// calibrates and claims the next, until window has passed and at least
// minN jobs completed. A job's reference time comes from its client's
// calibrations before and after it, and the loop's from all calibrations
// in the order they end. A repeat waits until the request it repeats has
// ended, so exactly the repeats are cache hits.
func (e *env) serviceLoop(window time.Duration, minN int) (*jobs, error) {
	m := e.mgr.Metrics()
	execs0, hits0 := m.Executions.Value(), m.CacheHits.Value()
	res := &jobs{runByType: map[string][]float64{}}
	var mu sync.Mutex
	ended := map[int]chan struct{}{} // request position → closed when it ends
	endedCh := func(i int) chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		ch, ok := ended[i]
		if !ok {
			ch = make(chan struct{})
			ended[i] = ch
		}
		return ch
	}
	var claimed, completed atomic.Int64
	first := calibrate()
	res.calib = append(res.calib, ms(first))
	start := time.Now()
	lastAt, lastCal := start, first // the latest calibration to end, under mu
	stop := func() bool {
		el := time.Since(start)
		return (el >= window && int(completed.Load()) >= minN) || el >= maxMeasure
	}
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cal := first
			for !stop() {
				i := int(claimed.Add(1) - 1)
				c, repeat := mixRequest(e.pool, i)
				if repeat {
					<-endedCh(i - repeatDistance)
				}
				t0 := time.Now()
				job, err := e.mgr.Submit(c.request())
				if err == nil {
					<-job.Done()
				}
				lat := time.Since(t0)
				var v service.JobView
				if err == nil {
					v = job.View()
					if v.State != service.StateDone {
						err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
					} else {
						err = e.check(c, job.Report())
					}
				}
				completed.Add(1)
				close(endedCh(i))
				after := calibrate()
				scale := refScale(cal, after)
				cal = after
				mu.Lock()
				now := time.Now()
				res.refElapsed += now.Sub(lastAt).Seconds() * refScale(lastCal, after)
				lastAt, lastCal = now, after
				res.calib = append(res.calib, ms(after))
				res.attempted++
				if err != nil {
					res.failed++
					fmt.Fprintf(os.Stderr, "owlperf: owld-mix request %d: %v\n", i, err)
				} else {
					run := ms(v.Finished.Sub(v.Started))
					res.latency = append(res.latency, ms(lat))
					res.ref = append(res.ref, ms(lat)*scale)
					res.wait = append(res.wait, ms(v.Started.Sub(v.Created)))
					res.run = append(res.run, run)
					if !v.CacheHit {
						res.runByType[c.label] = append(res.runByType[c.label], run)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	res.elapsed = end.Sub(start)
	res.refElapsed += end.Sub(lastAt).Seconds() * refScale(lastCal, lastCal)
	res.executions = m.Executions.Value() - execs0
	res.hits = m.CacheHits.Value() - hits0
	if res.attempted == 0 {
		return nil, errors.New("owld-mix completed no jobs")
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
