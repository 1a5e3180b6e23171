package owl_test

// Golden-report equivalence: the interpreter rewrite (decode-once block
// programs, SoA registers, direct-memory fast paths) must be observationally
// invisible. These tests pin the full owl report — leaks, classes, trace
// sizes, A-DCFG-derived features — byte-for-byte against JSON captured from
// the pre-rewrite per-lane interpreter, for the aes/rsa/jpeg/textproc
// workloads at 1 and 4 trace-collection workers.
//
// Regenerate (only when an intentional analytic change lands) with:
//
//	go test -run TestGoldenReports -update .

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"owl"
	"owl/internal/core"
	"owl/internal/experiments"
	"owl/internal/quantify"
	"owl/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// canonicalReportJSON serializes a report with its run-dependent timing
// and memory statistics zeroed; every analytic field — leaks, classes,
// trace sizes — stays and is compared byte for byte.
func canonicalReportJSON(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	r := *rep
	r.Stats.TraceCollectTime = 0
	r.Stats.EvidenceTime = 0
	r.Stats.TestTime = 0
	r.Stats.Total = 0
	r.Stats.PeakAllocBytes = 0
	b, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// checkGolden compares a canonical report against its golden file, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("report diverged from golden %s\ngot %d bytes, want %d bytes", path, len(got), len(want))
	}
}

// goldenPrograms is the workload set the acceptance criteria name. Small
// run counts keep the test affordable; determinism comes from the fixed
// seed and the merge-on-arrival reorder window.
var goldenPrograms = []string{
	"libgpucrypto/aes128",
	"libgpucrypto/rsa",
	"nvjpeg/encode",
	"media/tokenize",
}

func goldenPath(program string, workers int) string {
	safe := strings.ReplaceAll(program, "/", "_")
	return filepath.Join("testdata", "golden", safe+"-w"+string(rune('0'+workers))+".json")
}

// hardenedGoldenPrograms are the workloads whose automated repairs are
// pinned: the crypto kernels with hand-written countermeasure baselines.
var hardenedGoldenPrograms = []string{
	"libgpucrypto/aes128",
	"libgpucrypto/rsa",
}

func hardenedGoldenPath(program string, workers int) string {
	safe := strings.ReplaceAll(program, "/", "_")
	return filepath.Join("testdata", "golden", safe+"-hardened-w"+string(rune('0'+workers))+".json")
}

// TestGoldenHardenedReports locks the hardened side of the repair loop:
// the re-detection report of the automatically mitigated aes128/rsa
// programs must stay byte-identical at 1 and 4 trace-collection workers.
// Any change to the transform catalogue, the planning order, or the
// detection pipeline that shifts a hardened report shows up here.
func TestGoldenHardenedReports(t *testing.T) {
	if testing.Short() {
		t.Skip("hardened golden reports run two full detections plus equivalence checks")
	}
	for _, name := range hardenedGoldenPrograms {
		for _, workers := range []int{1, 4} {
			name, workers := name, workers
			t.Run(strings.ReplaceAll(name, "/", "_")+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				t.Parallel()
				target, err := experiments.FindTarget(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.FixedRuns, opts.RandomRuns = 8, 8
				opts.Seed = 42
				opts.Workers = workers
				res, err := owl.Repair(context.Background(), target.Program, target.Inputs, target.Gen,
					owl.MitigateOptions{Detector: opts})
				if err != nil {
					t.Fatal(err)
				}
				if n := len(res.AfterSites); n != 0 {
					t.Fatalf("hardened %s still has %d leak site(s)", name, n)
				}
				checkGolden(t, hardenedGoldenPath(name, workers), canonicalReportJSON(t, res.After))
			})
		}
	}
}

func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden reports run full detections")
	}
	for _, name := range goldenPrograms {
		for _, workers := range []int{1, 4} {
			name, workers := name, workers
			t.Run(strings.ReplaceAll(name, "/", "_")+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				t.Parallel()
				target, err := experiments.FindTarget(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.FixedRuns, opts.RandomRuns = 8, 8
				opts.Seed = 42
				opts.Workers = workers
				det, err := core.NewDetector(opts)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := det.Detect(target.Program, target.Inputs, target.Gen)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, goldenPath(name, workers), canonicalReportJSON(t, rep))
			})
		}
	}
}

// statGoldenPrograms are the workloads whose statistical-evidence reports
// are pinned: both evidence channels plus the cost channel, which routes
// through the statistical engine, TVLA/MI verdicts merged into
// diff leaks, and per-invocation cost-site rendering.
var statGoldenPrograms = []string{
	"libgpucrypto/aes128",
	"workloads/shmem-leaky",
}

func statGoldenPath(program string, workers int) string {
	safe := strings.ReplaceAll(program, "/", "_")
	return filepath.Join("testdata", "golden", safe+"-both-cost-w"+string(rune('0'+workers))+".json")
}

// TestGoldenStatReports pins the "both"+"adcfg,cost" report of each
// statGoldenPrograms workload at 1 and 4 trace-collection workers.
func TestGoldenStatReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden reports run full detections")
	}
	for _, name := range statGoldenPrograms {
		for _, workers := range []int{1, 4} {
			name, workers := name, workers
			t.Run(strings.ReplaceAll(name, "/", "_")+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				t.Parallel()
				target, err := experiments.FindTarget(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.FixedRuns, opts.RandomRuns = 16, 16
				opts.Seed = 42
				opts.Workers = workers
				opts.Evidence = core.EvidenceConfig{
					Mode:     core.EvidenceBoth,
					Channels: []string{core.ChannelADCFG, core.ChannelCost},
				}
				det, err := core.NewDetector(opts)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := det.Detect(target.Program, target.Inputs, target.Gen)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, statGoldenPath(name, workers), canonicalReportJSON(t, rep))
			})
		}
	}
}

// quantifyGoldenRuns is the per-regime run count of each quantify golden.
var quantifyGoldenRuns = map[string]int{
	"libgpucrypto/aes128": 40,
	"nvjpeg/encode":       10,
}

func quantifyGoldenPath(program string) string {
	safe := strings.ReplaceAll(program, "/", "_")
	return filepath.Join("testdata", "golden", safe+"-quantify.txt")
}

// TestGoldenQuantify pins every leakage estimate of aes128 and nvjpeg
// encode, in report order, with each score written in full precision
// (the shortest form that parses back to the same bits). Sequential and
// 4-worker recording must both match the one golden.
func TestGoldenQuantify(t *testing.T) {
	if testing.Short() {
		t.Skip("quantify goldens record full evidence")
	}
	for name, runs := range quantifyGoldenRuns {
		name, runs := name, runs
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			t.Parallel()
			target, err := experiments.FindTarget(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				t.Run("workers="+string(rune('0'+workers)), func(t *testing.T) {
					opts := core.DefaultOptions()
					opts.Seed = 42
					opts.Workers = workers
					det, err := core.NewDetector(opts)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := quantify.Quantify(det, target.Program, target.Inputs[0], target.Gen, runs)
					if err != nil {
						t.Fatal(err)
					}
					var b strings.Builder
					full := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
					for _, e := range rep.Estimates {
						fmt.Fprintf(&b, "%s %s jsd=%s dh=%s hfix=%s hrnd=%s\n", e.Kind, e.Location(),
							full(e.JSDBits), full(e.EntropyDeltaBits), full(e.FixEntropyBits), full(e.RndEntropyBits))
					}
					checkGolden(t, quantifyGoldenPath(name), []byte(b.String()))
				})
			}
		})
	}
}

// traceGoldenPath and traceCostGoldenPath hold the canonical bytes of
// every FullSuite target's traces, recorded with the cost channel off and
// on: per trace, its Hash and the SHA-256 of its JSON encoding.
var (
	traceGoldenPath     = filepath.Join("testdata", "golden", "trace-hashes.txt")
	traceCostGoldenPath = filepath.Join("testdata", "golden", "trace-hashes-cost.txt")
)

// TestGoldenTraceHashes pins the canonical trace encoding and the JSON
// trace form of every FullSuite target: each user input plus two
// generated ones (fixed seed) is recorded once with the cost channel off
// and once with it on, and each trace's Hash and the SHA-256 of its JSON
// are compared against the golden of its channel setting. The cost
// channel only adds cost sites: both recordings of one input must fold
// invocation graphs that encode identically.
func TestGoldenTraceHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("trace goldens record every suite target")
	}
	targets, err := experiments.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	var plain, withCost strings.Builder
	for _, target := range targets {
		gen := rand.New(rand.NewSource(42))
		inputs := append(slices.Clone(target.Inputs), target.Gen(gen), target.Gen(gen))
		for i, in := range inputs {
			var trs [2]*trace.ProgramTrace
			for c, b := range []*strings.Builder{&plain, &withCost} {
				recipe := core.Recipe{Device: opts.Device, Rebase: opts.Rebase, Cost: c == 1}
				tr, err := recipe.Record(context.Background(), target.Program, in, int64(i+1))
				if err != nil {
					t.Fatalf("%s input %d (cost=%v): %v", target.Program.Name(), i, c == 1, err)
				}
				var js bytes.Buffer
				if err := tr.WriteJSON(&js); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(b, "%s %d hash=%x json=%x\n", target.Program.Name(), i, tr.Hash(), sha256.Sum256(js.Bytes()))
				trs[c] = tr
			}
			off, on := trs[0].Invocations, trs[1].Invocations
			if len(off) != len(on) {
				t.Fatalf("%s input %d: %d invocations with cost off, %d with cost on", target.Program.Name(), i, len(off), len(on))
			}
			for j := range off {
				if !bytes.Equal(off[j].Graph.Encode(), on[j].Graph.Encode()) {
					t.Errorf("%s input %d invocation %d: the cost channel changed the A-DCFG", target.Program.Name(), i, j)
				}
			}
		}
	}
	checkGolden(t, traceGoldenPath, []byte(plain.String()))
	checkGolden(t, traceCostGoldenPath, []byte(withCost.String()))
}
