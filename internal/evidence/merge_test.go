package evidence_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/core"
	"owl/internal/evidence"
	"owl/internal/experiments"
	"owl/internal/trace"
)

// regimeRun is one recorded run with the regime it was recorded under.
type regimeRun struct {
	r evidence.Regime
	t *trace.ProgramTrace
}

// TestMergeConsumersIndependent records runs once and merges them three
// ways: into the diff evidence and the engine in one walk, into the diff
// evidence alone, and into the engine alone. The diff evidence must be
// identical with and without the engine beside it (presence, pair
// samples, every memory record's histogram, means and spreads), and the
// engine's verdicts identical with and without the diff evidence, bit
// for bit, MI included. The programs cover dense and cell histograms
// (aes128, nvjpeg encode), the cost channel (shmem-leaky) and a
// host-gated launch (torch repr launches its format kernel only for a
// non-zero tensor). A synthetic program repeats one stack identity at
// positions that move from run to run, where the Myers and (stack,
// occurrence) alignments pair the invocations differently.
func TestMergeConsumersIndependent(t *testing.T) {
	for _, tc := range []struct {
		program string
		cost    bool
	}{
		{"libgpucrypto/aes128", false},
		{"nvjpeg/encode", false},
		{"workloads/shmem-leaky", true},
		{"pytorch/repr", false},
		{"synthetic repeats", false},
	} {
		t.Run(tc.program, func(t *testing.T) {
			runs := recordRuns(t, tc.program, tc.cost)
			merge := func(diff, stat bool) ([2]*evidence.Diff, *evidence.Engine) {
				var d [2]*evidence.Diff
				var e *evidence.Engine
				if diff {
					d = [2]*evidence.Diff{evidence.NewDiff(), evidence.NewDiff()}
				}
				if stat {
					e = evidence.NewEngine(evidence.Config{TThreshold: evidence.DefaultTThreshold, MIBins: evidence.DefaultMIBins})
				}
				for _, run := range runs {
					evidence.Merge(run.r, run.t, d[run.r], e)
				}
				return d, e
			}
			bothD, bothE := merge(true, true)
			diffD, _ := merge(true, false)
			_, statE := merge(false, true)

			for r, d := range bothD {
				if len(d.Invs) == 0 || d.Runs != len(runs)/2 {
					t.Fatalf("regime %d: %d invocations over %d runs", r, len(d.Invs), d.Runs)
				}
				if !reflect.DeepEqual(d, diffD[r]) {
					t.Errorf("regime %d: diff evidence merged beside the engine differs from the diff evidence merged alone", r)
				}
			}
			got, want := bothE.Verdicts(), statE.Verdicts()
			if len(got) == 0 {
				t.Fatal("no verdicts")
			}
			if len(got) != len(want) {
				t.Fatalf("%d verdicts beside the diff evidence, %d alone", len(got), len(want))
			}
			for i := range got {
				// %#v prints every float exactly, an infinite t included.
				if g, w := fmt.Sprintf("%#v", got[i]), fmt.Sprintf("%#v", want[i]); g != w {
					t.Fatalf("verdict %d beside the diff evidence differs from the engine's alone:\n%s\n%s", i, g, w)
				}
			}
			kinds := make(map[evidence.SiteKind]int)
			for _, v := range got {
				kinds[v.Kind]++
			}
			if kinds[evidence.PairSite] == 0 || tc.cost && kinds[evidence.CostSite] == 0 {
				t.Errorf("verdicts by kind = %v", kinds)
			}
		})
	}
}

// recordRuns records 8 runs of program under its fixed input and 8
// under random ones, interleaved, or builds the synthetic program's runs.
func recordRuns(t *testing.T, program string, cost bool) []regimeRun {
	t.Helper()
	if program == "synthetic repeats" {
		// Stack a runs twice, around b or after it: the Myers diff aligns
		// each run's a with the a its neighbours match, (stack,
		// occurrence) with the a of the same rank.
		var runs []regimeRun
		for i := range 16 {
			seq := [][]string{{"a", "b", "a"}, {"b", "a"}, {"a", "b"}}[i%3]
			inv := make([]*trace.Invocation, len(seq))
			for j, s := range seq {
				inv[j] = synthInvocation(s, int64(i%4+j))
			}
			runs = append(runs, regimeRun{evidence.Regime(i % 2), &trace.ProgramTrace{Program: "p", Invocations: inv}})
		}
		return runs
	}
	target, err := experiments.FindTarget(program)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	if cost {
		opts.Evidence = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
	}
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var runs []regimeRun
	for range 8 {
		for r, input := range [][]byte{target.Inputs[0], target.Gen(rng)} {
			tr, err := det.RecordOnce(target.Program, input)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, regimeRun{evidence.Regime(r), tr})
		}
	}
	return runs
}

// synthInvocation is one invocation of stack s whose single warp walks
// blocks 0, 1 (k times around a loop on 1) and 2, loading k and 8+k.
func synthInvocation(s string, k int64) *trace.Invocation {
	g := adcfg.NewGraph("k")
	f := adcfg.NewWarpFolder(g, nil)
	f.EnterBlock(0)
	f.MemAccess(0, 0, false, []int64{k, 8 + k})
	for range k + 1 {
		f.EnterBlock(1)
	}
	f.EnterBlock(2)
	f.Finish()
	return &trace.Invocation{StackID: s, Kernel: "k", Graph: g}
}
