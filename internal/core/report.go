package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"owl/internal/adcfg"
)

// LeakKind classifies a detected leak (§IV-A).
type LeakKind uint8

// Leak kinds. Host-only control/data-flow leakage is out of Owl's scope
// (it is the territory of existing CPU tools); these are the
// GPU-relevant kinds. CostLeak extends the paper's three with the
// microarchitectural cost channel: secret-dependent access *shape*
// (bank conflicts, coalescing, operand Hamming weight) at
// address-identical sites the A-DCFG channels cannot see.
const (
	KernelLeak LeakKind = iota + 1
	ControlFlowLeak
	DataFlowLeak
	CostLeak
)

// String names the leak kind.
func (k LeakKind) String() string {
	switch k {
	case KernelLeak:
		return "kernel"
	case ControlFlowLeak:
		return "control-flow"
	case DataFlowLeak:
		return "data-flow"
	case CostLeak:
		return "cost"
	default:
		return "unknown"
	}
}

// Leak is one located leak. TStat, MI, Confidence, and RunsUsed are
// populated by the statistical evidence channel (EvidenceTVLA /
// EvidenceBoth) and stay zero — and absent from JSON — under the default
// diff channel, which keeps diff-mode reports byte-identical.
type Leak struct {
	Kind       LeakKind
	StackID    string
	Kernel     string
	Block      int    // device block ID (CF/DF)
	BlockLabel string // source label when the kernel is known
	Visit      int    // DF: visit index within the block
	MemIndex   int    // DF: memory-instruction index within the block
	Where      string // DF: instruction annotation, when known
	Pair       adcfg.PairKey
	P          float64
	D          float64
	Detail     string
	TStat      float64 `json:",omitempty"` // Welch's t of the strongest site feature
	MI         float64 `json:",omitempty"` // regime↔address mutual information, bits
	Confidence float64 `json:",omitempty"` // 1-p of TStat (normal approximation)
	RunsUsed   int     `json:",omitempty"` // recorded runs behind the verdict
	// Cost-channel fields; zero (and absent from JSON) for other kinds.
	Instr  int    `json:",omitempty"` // instruction index of the cost site
	Metric string `json:",omitempty"` // cost metric: "bank", "coalesce", "power"
}

// Location renders a stable, human-readable leak position.
func (l Leak) Location() string {
	switch l.Kind {
	case KernelLeak:
		return l.StackID
	case ControlFlowLeak:
		return fmt.Sprintf("%s:%s", l.StackID, l.BlockLabel)
	case DataFlowLeak:
		return fmt.Sprintf("%s:%s:mem%d", l.StackID, l.BlockLabel, l.MemIndex)
	case CostLeak:
		return fmt.Sprintf("%s:%s:%s@%d", l.StackID, l.BlockLabel, l.Metric, l.Instr)
	}
	return l.StackID
}

// leakKey is a leak's location, the identity leaks deduplicate on.
type leakKey struct {
	kind              LeakKind
	stackID           string
	block, visit, mem int
	metric            string // cost leaks only
	instr             int    // cost leaks only
}

func (l Leak) key() leakKey {
	k := leakKey{kind: l.Kind, stackID: l.StackID, block: l.Block, visit: l.Visit, mem: l.MemIndex}
	if l.Kind == CostLeak {
		// Cost sites are also keyed by metric and instruction.
		k.metric, k.instr = l.Metric, l.Instr
	}
	return k
}

// PhaseStats carries the Table IV measurements of one detection.
type PhaseStats struct {
	TraceBytes       int           // representative single-trace size
	TraceCollectTime time.Duration // wall time of one trace collection
	EvidenceTraces   int           // traces merged into evidence
	EvidenceTime     time.Duration // evidence-collection (merge) time
	TestTime         time.Duration // distribution-test time
	PeakAllocBytes   uint64        // max live heap observed (as of last GC)
	Total            time.Duration
}

// Report is the outcome of one detection. EvidenceMode, RunsBudget,
// RunsUsed, and EarlyStopped are populated by the statistical evidence
// channel and stay zero — and absent from JSON — under the default diff
// channel, preserving byte-identical diff-mode reports.
type Report struct {
	Program string
	Inputs  int
	Classes int
	// PotentialLeak is false when every user input produced an identical
	// trace, in which case the analysis phase was skipped (§VI).
	PotentialLeak bool
	Leaks         []Leak
	Stats         PhaseStats
	// EvidenceMode names the evidence channel(s) that analyzed the
	// classes ("tvla" or "both").
	EvidenceMode string `json:",omitempty"`
	// Channels lists the observable channels collected per run when the
	// configuration named any explicitly (e.g. "adcfg", "cost"); empty —
	// and absent from JSON — for the default A-DCFG-only pipeline.
	Channels []string `json:",omitempty"`
	// RunsBudget and RunsUsed total the configured and actually recorded
	// analysis runs across classes; EarlyStopped reports whether early
	// stop cancelled any remaining budget.
	RunsBudget   int  `json:",omitempty"`
	RunsUsed     int  `json:",omitempty"`
	EarlyStopped bool `json:",omitempty"`
}

// RunsSaved returns the analysis runs early stop avoided recording (0
// without early stopping).
func (r *Report) RunsSaved() int {
	if r.RunsBudget <= r.RunsUsed {
		return 0
	}
	return r.RunsBudget - r.RunsUsed
}

// Count returns the number of leaks of a kind.
func (r *Report) Count(kind LeakKind) int {
	n := 0
	for _, l := range r.Leaks {
		if l.Kind == kind {
			n++
		}
	}
	return n
}

// ByKind returns the leaks of one kind, most significant (smallest p)
// first.
func (r *Report) ByKind(kind LeakKind) []Leak {
	var out []Leak
	for _, l := range r.Leaks {
		if l.Kind == kind {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P < out[j].P })
	return out
}

// Summary renders a compact textual report.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s: %d input(s), %d class(es)\n", r.Program, r.Inputs, r.Classes)
	if !r.PotentialLeak {
		sb.WriteString("no potential side-channel leakage: all inputs produced identical traces\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "leaks: %d kernel, %d control-flow, %d data-flow", r.Count(KernelLeak), r.Count(ControlFlowLeak), r.Count(DataFlowLeak))
	if n := r.Count(CostLeak); n > 0 {
		fmt.Fprintf(&sb, ", %d cost", n)
	}
	sb.WriteByte('\n')
	if r.EvidenceMode != "" {
		fmt.Fprintf(&sb, "evidence: mode=%s, runs %d/%d", r.EvidenceMode, r.RunsUsed, r.RunsBudget)
		if r.EarlyStopped {
			fmt.Fprintf(&sb, ", early stop (%d runs saved)", r.RunsSaved())
		}
		sb.WriteByte('\n')
	}
	for _, kind := range []LeakKind{KernelLeak, ControlFlowLeak, DataFlowLeak, CostLeak} {
		for _, l := range r.ByKind(kind) {
			fmt.Fprintf(&sb, "  [%s] %s (p=%.3g, D=%.3f)", l.Kind, l.Location(), l.P, l.D)
			if l.TStat != 0 {
				fmt.Fprintf(&sb, " (|t|=%.1f, conf=%.4g)", math.Abs(l.TStat), l.Confidence)
			}
			if l.Where != "" {
				fmt.Fprintf(&sb, " ; %s", l.Where)
			}
			if l.Detail != "" {
				fmt.Fprintf(&sb, " ; %s", l.Detail)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Screened deduplicates leaks to unique code locations: repeated visits of
// the same instruction (loop iterations, compiler unrolling) collapse to
// one entry, keeping the smallest p. This is the screening step the paper
// applies before Table III ("some leaks at different basic blocks point to
// the same code location", §VIII-B).
func (r *Report) Screened() []Leak {
	byLoc := make(map[leakKey]Leak)
	var order []leakKey
	for _, l := range r.Leaks {
		k := l.key()
		k.visit = 0
		if prev, ok := byLoc[k]; !ok {
			byLoc[k] = l
			order = append(order, k)
		} else if l.P < prev.P {
			byLoc[k] = l
		}
	}
	out := make([]Leak, 0, len(order))
	for _, k := range order {
		out = append(out, byLoc[k])
	}
	return out
}

// ScreenedCount counts screened leaks of a kind.
func (r *Report) ScreenedCount(kind LeakKind) int {
	n := 0
	for _, l := range r.Screened() {
		if l.Kind == kind {
			n++
		}
	}
	return n
}

// LeakSite is the machine-readable form of one screened leak location —
// the stable contract external tooling (and internal/mitigate) consumes.
// Location is the same string Location() renders, so sites from different
// reports over the same program are directly comparable.
type LeakSite struct {
	Kind       string  `json:"kind"`
	Location   string  `json:"location"`
	StackID    string  `json:"stack_id"`
	Kernel     string  `json:"kernel,omitempty"`
	Block      int     `json:"block"`
	BlockLabel string  `json:"block_label,omitempty"`
	MemIndex   int     `json:"mem_index"`
	Where      string  `json:"where,omitempty"` // source annotation, e.g. "aes t-table lookup (line 12)"
	PairSrc    int     `json:"pair_src"`
	PairDst    int     `json:"pair_dst"`
	P          float64 `json:"p"`
	D          float64 `json:"d"`
	// Statistical-channel fields; zero (and omitted) under diff mode.
	TStat      float64 `json:"t_stat,omitempty"`
	MI         float64 `json:"mi,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	RunsUsed   int     `json:"runs_used,omitempty"`
	// Cost-channel fields; zero (and omitted) for other kinds.
	Instr  int    `json:"instr,omitempty"`
	Metric string `json:"metric,omitempty"`
}

// Sites exports the screened leaks as stable, sorted LeakSites.
func (r *Report) Sites() []LeakSite {
	screened := r.Screened()
	out := make([]LeakSite, 0, len(screened))
	for _, l := range screened {
		out = append(out, LeakSite{
			Kind:       l.Kind.String(),
			Location:   l.Location(),
			StackID:    l.StackID,
			Kernel:     l.Kernel,
			Block:      l.Block,
			BlockLabel: l.BlockLabel,
			MemIndex:   l.MemIndex,
			Where:      l.Where,
			PairSrc:    l.Pair.Src,
			PairDst:    l.Pair.Dst,
			P:          l.P,
			D:          l.D,
			TStat:      l.TStat,
			MI:         l.MI,
			Confidence: l.Confidence,
			RunsUsed:   l.RunsUsed,
			Instr:      l.Instr,
			Metric:     l.Metric,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Location != out[j].Location {
			return out[i].Location < out[j].Location
		}
		return out[i].MemIndex < out[j].MemIndex
	})
	return out
}

// leakSet indexes a report's leaks by location while a detection adds
// them, so finding or adding a leak is one map lookup. The index stays
// out of Report: a report's value — its JSON and %+v forms — is compared
// byte for byte.
type leakSet struct {
	report *Report
	at     map[leakKey]int // location → index into report.Leaks
}

// newLeakSet returns the index of r, which must hold no leaks yet.
func newLeakSet(r *Report) *leakSet {
	return &leakSet{report: r, at: make(map[leakKey]int)}
}

// find returns the recorded leak at l's location, or nil.
func (s *leakSet) find(l Leak) *Leak {
	if i, ok := s.at[l.key()]; ok {
		return &s.report.Leaks[i]
	}
	return nil
}

// add inserts l unless its location is already recorded, in which case
// the smaller p wins. It returns the recorded leak when l was recorded,
// for the caller to fill in the description it formats only then, and
// nil when the leak already recorded stayed.
func (s *leakSet) add(l Leak) *Leak {
	k := l.key()
	i, ok := s.at[k]
	switch {
	case !ok:
		i = len(s.report.Leaks)
		s.at[k] = i
		s.report.Leaks = append(s.report.Leaks, l)
	case l.P < s.report.Leaks[i].P:
		s.report.Leaks[i] = l
	default:
		return nil
	}
	return &s.report.Leaks[i]
}
