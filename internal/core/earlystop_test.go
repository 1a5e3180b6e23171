package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/evidence"
	"owl/internal/isa"
	"owl/internal/trace"
	"owl/internal/workloads/gpucrypto"
)

// stopRun builds one run's trace: one invocation whose single warp walks
// blocks, loading addr in the first block when addr >= 0, with a
// bank-conflict cost site of mean degree when degree > 0.
func stopRun(blocks []int, addr, degree int64) *trace.ProgramTrace {
	g := adcfg.NewGraph("k")
	f := adcfg.NewWarpFolder(g, nil)
	for i, b := range blocks {
		f.EnterBlock(b)
		if i == 0 && addr >= 0 {
			f.MemAccess(0, isa.SpaceGlobal, false, []int64{addr})
		}
	}
	f.Finish()
	inv := &trace.Invocation{StackID: "k", Kernel: "k", Graph: g}
	if degree > 0 {
		inv.Cost = []trace.CostSite{{Block: 1, Metric: trace.CostBank, Events: 1, Total: degree}}
	}
	return &trace.ProgramTrace{Program: "p", Invocations: []*trace.Invocation{inv}}
}

// TestEarlyStopState drives the stop state the round loop keeps, check by
// check, over the engine's leak signature, with the policy normalized()
// makes of each case's settings.
func TestEarlyStopState(t *testing.T) {
	type runs func(i int) (fixed, random *trace.ProgramTrace)
	leaky := func(i int) (*trace.ProgramTrace, *trace.ProgramTrace) {
		return stopRun([]int{0, 1, 3}, 64, 0), stopRun([]int{0, 2, 3}, int64(8*(i%4)), 0)
	}
	quiet := func(int) (*trace.ProgramTrace, *trace.ProgramTrace) {
		return stopRun([]int{0, 1, 3}, -1, 0), stopRun([]int{0, 1, 3}, -1, 0)
	}
	costOnly := func(i int) (*trace.ProgramTrace, *trace.ProgramTrace) {
		return stopRun([]int{0, 1}, -1, 1), stopRun([]int{0, 1}, -1, int64(4+i%2))
	}
	// round records n runs per regime, then checks.
	type round struct {
		n      int
		runs   runs
		stop   bool
		stable int
		why    string
	}
	tvla := func(th float64, bins int, p EarlyStopPolicy) EvidenceConfig {
		return EvidenceConfig{Mode: EvidenceTVLA, TVLAThreshold: th, MIBins: bins, EarlyStop: p}
	}
	var disabled []round
	for range 40 {
		disabled = append(disabled, round{1, quiet, false, 0, "disabled"})
	}
	for _, tc := range []struct {
		name   string
		in     EvidenceConfig
		norm   EvidenceConfig
		rounds []round
		sigHas string // a substring of the last check's signature
	}{
		{
			name: "stable signature stops",
			in:   tvla(0, 0, EarlyStopPolicy{Enabled: true, MinRuns: 4, CheckEvery: 2, StableChecks: 1}),
			norm: tvla(4.5, 64, EarlyStopPolicy{Enabled: true, MinRuns: 4, CheckEvery: 2, StableChecks: 1}),
			rounds: []round{
				{2, leaky, false, 0, "below MinRuns"},
				{2, leaky, false, 0, "the first check only primes"},
				{2, leaky, true, 1, "stable signature"},
			},
		},
		{
			name: "signature change resets the count",
			in:   tvla(0, 0, EarlyStopPolicy{Enabled: true, MinRuns: 2, CheckEvery: 2, StableChecks: 2}),
			norm: tvla(4.5, 64, EarlyStopPolicy{Enabled: true, MinRuns: 2, CheckEvery: 2, StableChecks: 2}),
			rounds: []round{
				{2, quiet, false, 0, "the first check only primes"},
				{8, leaky, false, 0, "the leak emerges: the signature changes"},
				{2, leaky, false, 1, "one stable check of two"},
				{2, leaky, true, 2, "two stable checks"},
			},
		},
		{
			name:   "disabled never stops",
			in:     tvla(0, 0, EarlyStopPolicy{}),
			norm:   tvla(4.5, 64, EarlyStopPolicy{MinRuns: 8, CheckEvery: 4, StableChecks: 1}),
			rounds: disabled,
		},
		{
			name: "cost sites join the signature",
			in:   tvla(0, 0, EarlyStopPolicy{Enabled: true, MinRuns: 4, CheckEvery: 2, StableChecks: 1}),
			norm: tvla(4.5, 64, EarlyStopPolicy{Enabled: true, MinRuns: 4, CheckEvery: 2, StableChecks: 1}),
			rounds: []round{
				{2, costOnly, false, 0, "below MinRuns"},
				{2, costOnly, false, 0, "the first check only primes"},
				{2, costOnly, true, 1, "stable cost-only signature"},
			},
			sigHas: "cost|k|bank|1.0",
		},
		{
			name: "defaults",
			in:   tvla(0, 0, EarlyStopPolicy{Enabled: true}),
			norm: tvla(4.5, 64, EarlyStopPolicy{Enabled: true, MinRuns: 8, CheckEvery: 4, StableChecks: 1}),
			rounds: []round{
				{4, leaky, false, 0, "below the default MinRuns"},
				{4, leaky, false, 0, "the first check only primes"},
				{4, leaky, true, 1, "stable signature"},
			},
		},
		{
			name: "explicit values kept",
			in:   tvla(5, 16, EarlyStopPolicy{Enabled: true, MinRuns: 3, CheckEvery: 5, StableChecks: 2}),
			norm: tvla(5, 16, EarlyStopPolicy{Enabled: true, MinRuns: 3, CheckEvery: 5, StableChecks: 2}),
			rounds: []round{
				{5, leaky, false, 0, "the first check only primes"},
				{5, leaky, false, 1, "one stable check of two"},
				{5, leaky, true, 2, "two stable checks"},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.in.normalized()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cfg, tc.norm) {
				t.Fatalf("normalized() = %+v, want %+v", cfg, tc.norm)
			}
			if again, _ := cfg.normalized(); !reflect.DeepEqual(again, cfg) {
				t.Fatalf("normalizing twice changed %+v to %+v", cfg, again)
			}
			e := evidence.NewEngine(evidence.Config{TThreshold: cfg.TVLAThreshold, MIBins: cfg.MIBins})
			var s stopState
			var used int
			var sig string
			for j, r := range tc.rounds {
				for i := range r.n {
					fixed, random := r.runs(i)
					e.Observe(evidence.Fixed, fixed)
					e.Observe(evidence.Random, random)
				}
				used += r.n
				sig = e.Trajectory().Signature
				if stop := s.check(cfg.EarlyStop, sig, used, used); stop != r.stop || s.stable != r.stable {
					t.Fatalf("check %d (%s): stop %v with %d stable checks, want %v with %d",
						j+1, r.why, stop, s.stable, r.stop, r.stable)
				}
			}
			if !cfg.EarlyStop.Enabled && s != (stopState{}) {
				t.Errorf("a disabled policy updated the stop state to %+v", s)
			}
			if !strings.Contains(sig, tc.sigHas) {
				t.Errorf("last signature %q does not name %q", sig, tc.sigHas)
			}
		})
	}
}

// TestEarlyStopSampleSequence pins the evidence samples (round, runs,
// stable checks, early stop) of one aes128 detection in mode both, with
// early stop on and off. The early-stop run ends class 1 at its last
// round with a count of 2 but no budget left (no stop), stops class 2
// after 6 rounds, and sees class 3's signature change reset its count.
// With early stop off every round runs and the count stays 0.
func TestEarlyStopSampleSequence(t *testing.T) {
	full := func() []string {
		var out []string
		for r := 1; r <= 10; r++ {
			out = append(out, fmt.Sprintf("%d/%d/0/false", r, 8*r))
		}
		return out
	}
	for _, tc := range []struct {
		on   bool
		used int
		want []string
	}{
		{on: true, used: 208, want: []string{
			"1/8/0/false", "2/16/0/false", "3/24/0/false", "4/32/0/false", "5/40/0/false",
			"6/48/0/false", "7/56/0/false", "8/64/0/false", "9/72/1/false", "10/80/2/false",
			"1/8/0/false", "2/16/0/false", "3/24/0/false", "4/32/0/false", "5/40/1/false", "6/48/2/true",
			"1/8/0/false", "2/16/0/false", "3/24/0/false", "4/32/1/false", "5/40/0/false",
			"6/48/0/false", "7/56/0/false", "8/64/0/false", "9/72/0/false", "10/80/1/false",
		}},
		{on: false, used: 240, want: append(append(full(), full()...), full()...)},
	} {
		o := DefaultOptions()
		o.FixedRuns, o.RandomRuns = 40, 40
		o.Seed = 42
		o.Evidence = EvidenceConfig{
			Mode:          EvidenceBoth,
			TVLAThreshold: 3,
			EarlyStop:     EarlyStopPolicy{Enabled: tc.on, StableChecks: 2},
		}
		var got []string
		o.OnEvidence = func(s EvidenceSample) {
			got = append(got, fmt.Sprintf("%d/%d/%d/%v", s.Round, s.Runs, s.StableChecks, s.EarlyStopped))
		}
		d, err := NewDetector(o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Detect(gpucrypto.NewAES(gpucrypto.WithBlocks(32)),
			[][]byte{[]byte("0123456789abcdef"), []byte("fedcba9876543210"), []byte("a secret aes key")},
			gpucrypto.KeyGen())
		if err != nil {
			t.Fatal(err)
		}
		if g, w := strings.Join(got, " "), strings.Join(tc.want, " "); g != w {
			t.Errorf("early stop %v: samples\n got %s\nwant %s", tc.on, g, w)
		}
		if rep.RunsUsed != tc.used || rep.RunsBudget != 240 || rep.EarlyStopped != tc.on {
			t.Errorf("early stop %v: used %d of %d, early stopped %v; want %d of 240, %v",
				tc.on, rep.RunsUsed, rep.RunsBudget, rep.EarlyStopped, tc.used, tc.on)
		}
	}
}
