package evidence

import (
	"math"
	"reflect"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/isa"
	"owl/internal/trace"
)

// mkInvocation builds one invocation whose single warp walks blocks and
// issues one load with the given addresses in the first block.
func mkInvocation(stackID string, blocks []int, addrs []int64) *trace.Invocation {
	g := adcfg.NewGraph("k")
	f := adcfg.NewWarpFolder(g, nil)
	for i, b := range blocks {
		f.EnterBlock(b)
		if i == 0 && len(addrs) > 0 {
			f.MemAccess(0, isa.SpaceGlobal, false, addrs)
		}
	}
	f.Finish()
	return &trace.Invocation{StackID: stackID, Kernel: "k", Graph: g}
}

func mkTrace(invs ...*trace.Invocation) *trace.ProgramTrace {
	return &trace.ProgramTrace{Program: "p", Invocations: invs}
}

// find returns the first verdict matching kind (and stack).
func find(vs []Verdict, kind SiteKind, stack string) (Verdict, bool) {
	for _, v := range vs {
		if v.Kind == kind && v.Stack == stack {
			return v, true
		}
	}
	return Verdict{}, false
}

// TestEnginePresenceLeak: an invocation that occurs in every fixed run
// and no random run is a presence leak; an always-present invocation is
// not.
func TestEnginePresenceLeak(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 12; i++ {
		e.Observe(Fixed, mkTrace(
			mkInvocation("base", []int{0, 1}, nil),
			mkInvocation("extra", []int{0, 1}, nil),
		))
		e.Observe(Random, mkTrace(mkInvocation("base", []int{0, 1}, nil)))
	}
	vs := e.Verdicts()
	extra, ok := find(vs, PresenceSite, "extra")
	if !ok {
		t.Fatal("no presence verdict for extra")
	}
	if !extra.Leak || !math.IsInf(extra.TStat, 1) || extra.Confidence != 1 {
		t.Fatalf("extra presence verdict: %+v", extra)
	}
	base, ok := find(vs, PresenceSite, "base")
	if !ok {
		t.Fatal("no presence verdict for base")
	}
	if base.Leak || base.TStat != 0 {
		t.Fatalf("base presence verdict: %+v", base)
	}
}

// TestEnginePairLeak: a block whose successor depends on the regime
// yields a leaking pair verdict; input-independent control flow does not.
func TestEnginePairLeak(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 16; i++ {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1, 3}, nil)))
		e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 2, 3}, nil)))
	}
	var leaks []Verdict
	for _, v := range e.Verdicts() {
		if v.Kind == PairSite && v.Leak {
			leaks = append(leaks, v)
		}
	}
	if len(leaks) == 0 {
		t.Fatal("regime-dependent branch produced no pair leak")
	}
	for _, v := range leaks {
		if math.Abs(v.TStat) <= DefaultTThreshold {
			t.Fatalf("leak verdict under threshold: %+v", v)
		}
	}

	// Control: identical paths in both regimes → no pair leak at all.
	e = NewEngine(Config{})
	for i := 0; i < 16; i++ {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1, 3}, nil)))
		e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 1, 3}, nil)))
	}
	for _, v := range e.Verdicts() {
		if v.Leak {
			t.Fatalf("identical traces produced leak verdict %+v", v)
		}
	}
}

// TestEngineMemLeak: a load whose address tracks the regime (constant
// under the fixed input, spread under random inputs) yields a leaking mem
// verdict with positive MI; a fixed-stride load does not.
func TestEngineMemLeak(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 20; i++ {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1}, []int64{64})))
		e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 1}, []int64{int64(8 * (i % 2))})))
	}
	v, ok := find(e.Verdicts(), MemSite, "k")
	if !ok {
		t.Fatal("no mem verdict")
	}
	if !v.Leak {
		t.Fatalf("secret-indexed load not flagged: %+v", v)
	}
	if v.MI <= 0.5 {
		t.Fatalf("MI = %v, want near-1 for disjoint-support addresses", v.MI)
	}
	if v.Confidence < 0.999 {
		t.Fatalf("confidence = %v", v.Confidence)
	}

	// Control: same fixed access pattern both regimes.
	e = NewEngine(Config{})
	for i := 0; i < 20; i++ {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1}, []int64{0, 16, 32})))
		e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 1}, []int64{0, 16, 32})))
	}
	v, ok = find(e.Verdicts(), MemSite, "k")
	if !ok {
		t.Fatal("no mem verdict for control")
	}
	if v.Leak || v.TStat != 0 || v.MI != 0 {
		t.Fatalf("oblivious load flagged: %+v", v)
	}
}

// TestEngineOccurrenceAlignment: the same stack identity launched twice
// per run aligns by occurrence index — a leak in the second launch only
// must attribute to Occ 1.
func TestEngineOccurrenceAlignment(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 16; i++ {
		e.Observe(Fixed, mkTrace(
			mkInvocation("k", []int{0, 1}, []int64{0}),
			mkInvocation("k", []int{0, 1}, []int64{64}),
		))
		e.Observe(Random, mkTrace(
			mkInvocation("k", []int{0, 1}, []int64{0}),
			mkInvocation("k", []int{0, 1}, []int64{int64(8 * (i % 8))}),
		))
	}
	var leaks []Verdict
	for _, v := range e.Verdicts() {
		if v.Kind == MemSite && v.Leak {
			leaks = append(leaks, v)
		}
	}
	if len(leaks) != 1 {
		t.Fatalf("leaks = %d, want 1 (%+v)", len(leaks), leaks)
	}
	if leaks[0].Occ != 1 {
		t.Fatalf("leak attributed to occurrence %d, want 1", leaks[0].Occ)
	}
}

// TestEngineAbsentRunsPadZero: a pair site present in only some runs of a
// regime is padded with zeros for the absent runs, mirroring the diff
// channel's normalization.
func TestEngineAbsentRunsPadZero(t *testing.T) {
	e := NewEngine(Config{})
	// Fixed: path 0→1→3 every run. Random: alternate 0→1→3 and 0→2→3, so
	// block 1's pair is absent (zero) in half the random runs.
	for i := 0; i < 40; i++ {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1, 3}, nil)))
		blocks := []int{0, 1, 3}
		if i%2 == 0 {
			blocks = []int{0, 2, 3}
		}
		e.Observe(Random, mkTrace(mkInvocation("k", []int{0, blocks[1], 3}, nil)))
	}
	leak := false
	for _, v := range e.Verdicts() {
		if v.Kind == PairSite && v.Block == 1 && v.Leak {
			leak = true
		}
	}
	if !leak {
		t.Fatal("half-taken branch not flagged — zero padding missing?")
	}
}

// TestEngineDeterministic: two engines fed the same run sequence agree on
// every verdict bit for bit, including the MI estimates.
func TestEngineDeterministic(t *testing.T) {
	build := func() []Verdict {
		e := NewEngine(Config{MIBins: 4}) // small cap exercises the rebin
		for i := 0; i < 24; i++ {
			addrs := []int64{int64(i % 5), int64(10 + i%7), int64(100 + i%3)}
			e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1, 3}, []int64{64, 65, 66})))
			e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 2, 3}, addrs)))
		}
		return e.Verdicts()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verdicts differ across identical engines:\n%+v\n%+v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no verdicts")
	}
}

// TestEngineDoesNotRetainTraces: accumulators survive the caller zeroing
// the observed trace, proving no references are kept.
func TestEngineDoesNotRetainTraces(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 4; i++ {
		tr := mkTrace(mkInvocation("k", []int{0, 1}, []int64{int64(i)}))
		e.Observe(Fixed, tr)
		for _, inv := range tr.Invocations {
			inv.Graph = nil
		}
		tr.Invocations = nil
		tr2 := mkTrace(mkInvocation("k", []int{0, 1}, []int64{int64(100 + i)}))
		e.Observe(Random, tr2)
		tr2.Invocations = nil
	}
	vs := e.Verdicts()
	if len(vs) == 0 {
		t.Fatal("no verdicts after traces were zeroed")
	}
}

func TestControllerStopsOnStableSignature(t *testing.T) {
	e := NewEngine(Config{})
	c := NewController(e, StopPolicy{Enabled: true, MinRuns: 4, CheckEvery: 2, StableChecks: 1})

	observeRound := func(n int) {
		for i := 0; i < n; i++ {
			e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1, 3}, []int64{64})))
			e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 2, 3}, []int64{int64(8 * (i % 4))})))
		}
	}

	observeRound(2)
	if c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("stopped below MinRuns")
	}
	observeRound(2)
	if c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("stopped on the priming check — no previous signature to compare")
	}
	observeRound(2)
	if !c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("signature stable across consecutive checks but controller did not stop")
	}
}

func TestControllerSignatureChangeResetsStability(t *testing.T) {
	e := NewEngine(Config{})
	c := NewController(e, StopPolicy{Enabled: true, MinRuns: 2, CheckEvery: 2, StableChecks: 2})

	quiet := func() {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1, 3}, nil)))
		e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 1, 3}, nil)))
	}
	leaky := func(i int) {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1, 3}, []int64{64})))
		e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 2, 3}, []int64{int64(8 * (i % 4))})))
	}

	quiet()
	quiet()
	if c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("priming check stopped")
	}
	// The leak emerges: signature flips from empty to non-empty and the
	// stability count must restart.
	for i := 0; i < 8; i++ {
		leaky(i)
	}
	if c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("stopped on a signature change")
	}
	for i := 0; i < 2; i++ {
		leaky(i)
	}
	if c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("stopped after one stable check; policy requires two")
	}
	for i := 0; i < 2; i++ {
		leaky(i)
	}
	if !c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("two consecutive stable checks must stop")
	}
}

func TestControllerDisabledNeverStops(t *testing.T) {
	e := NewEngine(Config{})
	c := NewController(e, StopPolicy{})
	for i := 0; i < 40; i++ {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1}, nil)))
		e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 1}, nil)))
		if c.CheckTrajectory(e.Trajectory()) {
			t.Fatal("disabled controller stopped")
		}
	}
}

func TestStopPolicyDefaults(t *testing.T) {
	p := StopPolicy{Enabled: true}.WithDefaults()
	if p.MinRuns != DefaultMinRuns || p.CheckEvery != DefaultCheckEvery || p.StableChecks != DefaultStableChecks {
		t.Fatalf("defaults: %+v", p)
	}
	q := StopPolicy{Enabled: true, MinRuns: 3, CheckEvery: 5, StableChecks: 2}.WithDefaults()
	if q.MinRuns != 3 || q.CheckEvery != 5 || q.StableChecks != 2 {
		t.Fatalf("explicit knobs clobbered: %+v", q)
	}
}

// TestVerdictKeysStable locks the signature key grammar (the controller
// compares signatures textually across checks).
func TestVerdictKeysStable(t *testing.T) {
	vs := []Verdict{
		{Kind: PresenceSite, Stack: "s", Occ: 2},
		{Kind: PairSite, Stack: "s", Occ: 0, Block: 4, Pair: adcfg.PairKey{Src: 1, Dst: 7}},
		{Kind: MemSite, Stack: "s", Occ: 1, Mem: MemKey{Block: 3, Visit: 0, Mem: 2}},
		{Kind: CostSite, Stack: "s", Occ: 0, Cost: CostKey{Metric: trace.CostBank, Block: 2, Instr: 5}},
	}
	want := []string{"presence|s#2", "pair|s#0|4|1>7", "mem|s#1|3.0.2", "cost|s#0|bank|2.5"}
	for i, v := range vs {
		if got := v.Key(); got != want[i] {
			t.Fatalf("key %d = %q, want %q", i, got, want[i])
		}
	}
}

// costTrace builds a trace whose single invocation has a constant A-DCFG
// and one bank-conflict cost site with the given mean degree.
func costTrace(degree int64) *trace.ProgramTrace {
	inv := mkInvocation("k", []int{0, 1}, nil)
	inv.Cost = []trace.CostSite{{Block: 1, Instr: 0, Metric: trace.CostBank, Events: 1, Total: degree}}
	return mkTrace(inv)
}

// TestEngineCostLeak: a cost site whose mean tracks the regime (constant
// degree under the fixed input, secret-spread under random inputs) yields
// a leaking cost verdict; a regime-independent cost profile yields no
// verdict at all — the property that clears a padded kernel.
func TestEngineCostLeak(t *testing.T) {
	e := NewEngine(Config{})
	degrees := []int64{1, 2, 4, 4} // random-regime stride mix
	for i := 0; i < 24; i++ {
		e.Observe(Fixed, costTrace(1))
		e.Observe(Random, costTrace(degrees[i%len(degrees)]))
	}
	v, ok := find(e.Verdicts(), CostSite, "k")
	if !ok {
		t.Fatal("no cost verdict")
	}
	if !v.Leak {
		t.Fatalf("secret-dependent bank degree not flagged: %+v", v)
	}
	if v.Cost.Metric != trace.CostBank || v.Cost.Block != 1 {
		t.Fatalf("cost verdict at wrong site: %+v", v)
	}
	if v.MI <= 0 {
		t.Fatalf("MI = %v, want positive for regime-separated degrees", v.MI)
	}

	// Control: identical cost profile in both regimes — the verdict must
	// be a clean t=0 non-leak, the property that clears a padded kernel.
	e = NewEngine(Config{})
	for i := 0; i < 24; i++ {
		e.Observe(Fixed, costTrace(1))
		e.Observe(Random, costTrace(1))
	}
	v, ok = find(e.Verdicts(), CostSite, "k")
	if !ok {
		t.Fatal("no cost verdict for control")
	}
	if v.Leak || v.TStat != 0 || v.MI != 0 {
		t.Fatalf("constant cost profile flagged: %+v", v)
	}
}

// TestEngineCostAbsentRunsPadZero: a cost site that appears only in later
// runs is zero-padded for the earlier ones, keeping the two regimes'
// sample counts aligned.
func TestEngineCostAbsentRunsPadZero(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 16; i++ {
		e.Observe(Fixed, mkTrace(mkInvocation("k", []int{0, 1}, nil)))
		if i < 4 {
			e.Observe(Random, mkTrace(mkInvocation("k", []int{0, 1}, nil)))
		} else {
			e.Observe(Random, costTrace(8))
		}
	}
	v, ok := find(e.Verdicts(), CostSite, "k")
	if !ok {
		t.Fatal("no cost verdict")
	}
	if !v.Leak {
		t.Fatalf("late-appearing cost site not flagged: %+v", v)
	}
}

// TestControllerCostSignature: cost sites participate in the sequential
// controller's leak signature — a cost-only leak (A-DCFG identical across
// regimes) must both reset stability when it emerges and stop recording
// once stable.
func TestControllerCostSignature(t *testing.T) {
	e := NewEngine(Config{})
	c := NewController(e, StopPolicy{Enabled: true, MinRuns: 4, CheckEvery: 2, StableChecks: 1})

	observeRound := func(n int) {
		for i := 0; i < n; i++ {
			e.Observe(Fixed, costTrace(1))
			e.Observe(Random, costTrace(int64(4+i%2)))
		}
	}

	observeRound(2)
	if c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("stopped below MinRuns")
	}
	observeRound(2)
	if c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("stopped on the priming check")
	}
	observeRound(2)
	if !c.CheckTrajectory(e.Trajectory()) {
		t.Fatal("stable cost-only signature did not stop the controller")
	}
	// The signature the controller converged on must name the cost site.
	found := false
	for _, v := range e.Verdicts() {
		if v.Kind == CostSite && v.Leak {
			found = true
		}
	}
	if !found {
		t.Fatal("controller stopped without a leaking cost site in the signature")
	}
}
