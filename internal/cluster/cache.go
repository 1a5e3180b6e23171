package cluster

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
)

// ReportCache is a mutex-guarded LRU of detection reports, keyed by
// Fingerprint: workers hold it as their half of the fleet's shared
// content-addressed report cache, and owld's job manager as its local one.
type ReportCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are reportEntry
	entries map[string]*list.Element
}

type reportEntry struct {
	key    string
	report *core.Report
}

// NewReportCache builds a cache holding up to capacity reports;
// capacity <= 0 disables caching.
func NewReportCache(capacity int) *ReportCache {
	return &ReportCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached report for key, refreshing its recency.
func (c *ReportCache) Get(key string) (*core.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(reportEntry).report, true
}

// Add stores a report under key, evicting the least-recently-used entry
// when over capacity.
func (c *ReportCache) Add(key string, report *core.Report) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = reportEntry{key: key, report: report}
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(reportEntry{key: key, report: report})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(reportEntry).key)
	}
}

// Len returns the number of cached reports.
func (c *ReportCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// kernelProbe harvests kernel definitions from an otherwise untraced run;
// Fingerprint uses it to learn a workload's kernel set cheaply.
type kernelProbe struct{ harvest func(*isa.Kernel) }

func (kernelProbe) OnAlloc(gpu.AllocRecord, string) {}

func (p kernelProbe) OnLaunch(info cuda.LaunchInfo) gpu.Instrument {
	p.harvest(info.Kernel)
	return nil // untraced: the probe only wants the definitions
}

// Fingerprint computes the content address of a detection result: a hash
// over the program's kernel definitions (learned from one untraced probe
// run), the user inputs, and every option that influences the report.
// Keying on kernel content rather than program name means two nodes whose
// registries map the same name to different code can never alias each
// other's cached reports.
func Fingerprint(ctx context.Context, p cuda.Program, inputs [][]byte, opts core.Options) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if len(inputs) == 0 {
		return "", fmt.Errorf("cluster: fingerprint needs at least one input")
	}
	var (
		kmu     sync.Mutex
		kernels = map[string][]byte{}
	)
	probe := kernelProbe{harvest: func(k *isa.Kernel) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(k); err != nil {
			return // non-encodable kernels simply don't contribute
		}
		kmu.Lock()
		kernels[k.Name] = buf.Bytes()
		kmu.Unlock()
	}}
	// The probe replays the detector's first recording exactly (same seed
	// schedule position zero), so the harvested kernel set matches what a
	// real run would launch.
	rng := rand.New(rand.NewSource(opts.Seed))
	cctx, err := cuda.NewContext(opts.Device, rng, probe)
	if err != nil {
		return "", err
	}
	defer cctx.Close()
	if err := p.Run(cctx, inputs[0]); err != nil {
		return "", fmt.Errorf("cluster: fingerprint probe of %s: %w", p.Name(), err)
	}

	h := sha256.New()
	fmt.Fprintf(h, "owl-report-v1|%s|%s", p.Name(), OptionsKey(opts))
	for _, in := range inputs {
		fmt.Fprintf(h, "|in:%x", in)
	}
	names := make([]string, 0, len(kernels))
	for name := range kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "|k:%s:%x", name, sha256.Sum256(kernels[name]))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// OptionsKey renders every option that influences a detection report, the
// options part of Fingerprint. Workers and Runner are excluded on
// purpose: parallel and sequential recording produce identical reports. A
// new option that changes reports must join this string, or cached
// reports alias.
//
// The device renders field by field in the form %+v gave gpu.Config when
// it still had a Parallel field. Fleet and owld caches outlive the
// process, so the constant "Parallel:false" stays to keep their keys.
func OptionsKey(opts core.Options) string {
	d := opts.Device
	return fmt.Sprintf("%d|%d|%g|%d|%v|%v|%v|{GlobalWords:%d ConstWords:%d ASLR:%v Parallel:false}|%+v",
		opts.FixedRuns, opts.RandomRuns, opts.Confidence, opts.Seed,
		opts.Rebase, opts.FilterDuplicates, opts.UseWelch,
		d.GlobalWords, d.ConstWords, d.ASLR, opts.Evidence)
}

// CacheGet asks each worker in turn for the report under key and returns
// the first hit. Transport errors just move to the next node — a cache
// miss is never fatal.
func (f *Fleet) CacheGet(ctx context.Context, key string) (*core.Report, bool) {
	for _, addr := range f.addrs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/cache/"+key, nil)
		if err != nil {
			continue
		}
		resp, err := f.opts.Client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		var rep core.Report
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			continue
		}
		return &rep, true
	}
	return nil, false
}

// CachePut fills every worker's cache with the report under key, so any
// node can answer the next coordinator's lookup. Best-effort: unreachable
// workers are skipped.
func (f *Fleet) CachePut(ctx context.Context, key string, rep *core.Report) {
	body, err := json.Marshal(rep)
	if err != nil {
		return
	}
	for _, addr := range f.addrs {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, addr+"/v1/cache/"+key, bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := f.opts.Client.Do(req)
		if err != nil {
			continue
		}
		resp.Body.Close()
	}
}
