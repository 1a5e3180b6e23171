package evidence_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/core"
	"owl/internal/evidence"
	"owl/internal/experiments"
	"owl/internal/trace"
)

// TestMergeNMatchesSequentialMerges checks that merging a trace as k
// counted copies in one walk (MergeN) leaves the evidence exactly as k
// sequential merges of it do, for k in {1, 2, 5}. It covers every
// FullSuite target with the cost channel off and on, and the diff
// evidence alone, the engine alone and both, each merged into empty
// evidence and into evidence that already holds the target's
// random-input runs in both regimes. One more run of each regime merges
// after the copies, so a difference in how the copies left the evidence
// shows in what later runs make of it too.
//
// What readers see must be bit-identical: for the diff evidence, the
// aligned invocations, presence, pair samples, and every memory record's
// histogram cells, means and spreads, with a KS distance of 0 between
// the two histograms; for the engine, every Welford accumulator, every
// MI estimate and the verdicts. A k-merge into a cell histogram may leave
// it holding cells where sequential merges switched it to dense counts,
// so the histograms' representation is not compared.
//
// The test also requires that some case reached a dense evidence
// histogram and an MI estimator past its rebin, and it merges the
// synthetic program whose repeated stack identity moves between runs, so
// a copy's Myers alignment can differ from the first copy's.
func TestMergeNMatchesSequentialMerges(t *testing.T) {
	targets, err := experiments.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	type recorded struct {
		name   string
		fixed  []*trace.ProgramTrace // the traces merged as copies
		others []*trace.ProgramTrace // the runs already held
	}
	var all []recorded
	for _, tg := range targets {
		for _, cost := range []bool{false, true} {
			opts := core.DefaultOptions()
			if cost {
				opts.Evidence = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
			}
			det, err := core.NewDetector(opts)
			if err != nil {
				t.Fatal(err)
			}
			record := func(input []byte) *trace.ProgramTrace {
				tr, err := det.RecordOnce(tg.Program, input)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			rec := recorded{name: fmt.Sprintf("%s/cost=%v", tg.Program.Name(), cost), fixed: []*trace.ProgramTrace{record(tg.Inputs[0])}}
			rng := rand.New(rand.NewSource(1))
			for range 6 {
				rec.others = append(rec.others, record(tg.Gen(rng)))
			}
			all = append(all, rec)
		}
	}
	// The synthetic runs launch a, b, a or b, a or a, b: merged into
	// evidence holding only b, a, the first and last insert an a.
	synth := recorded{name: "synthetic repeats"}
	for i, run := range recordRuns(t, "synthetic repeats", false)[:6] {
		synth.fixed = append(synth.fixed, run.t)
		if i%3 == 1 {
			synth.others = append(synth.others, run.t)
		}
	}
	all = append(all, synth)

	var dense, rebinned int
	for _, rec := range all {
		for _, mode := range []struct {
			name       string
			diff, stat bool
		}{{"diff", true, false}, {"engine", false, true}, {"both", true, true}} {
			for _, held := range []bool{false, true} {
				for _, k := range []int{1, 2, 5} {
					for fi, f := range rec.fixed {
						name := fmt.Sprintf("%s/%s/held=%v/k=%d/trace=%d", rec.name, mode.name, held, k, fi)
						var prefix []*trace.ProgramTrace
						if held {
							prefix = rec.others
						}
						build := func(copies func(d [2]*evidence.Diff, e *evidence.Engine)) ([2]*evidence.Diff, *evidence.Engine) {
							var d [2]*evidence.Diff
							var e *evidence.Engine
							if mode.diff {
								d = [2]*evidence.Diff{evidence.NewDiff(), evidence.NewDiff()}
							}
							if mode.stat {
								e = evidence.NewEngine(evidence.Config{TThreshold: evidence.DefaultTThreshold, MIBins: evidence.DefaultMIBins})
							}
							for _, o := range prefix {
								evidence.Merge(evidence.Fixed, o, d[evidence.Fixed], e)
								evidence.Merge(evidence.Random, o, d[evidence.Random], e)
							}
							copies(d, e)
							evidence.Merge(evidence.Fixed, rec.others[0], d[evidence.Fixed], e)
							evidence.Merge(evidence.Random, f, d[evidence.Random], e)
							return d, e
						}
						gotD, gotE := build(func(d [2]*evidence.Diff, e *evidence.Engine) {
							evidence.MergeN(evidence.Fixed, f, d[evidence.Fixed], e, k)
						})
						wantD, wantE := build(func(d [2]*evidence.Diff, e *evidence.Engine) {
							for range k {
								evidence.Merge(evidence.Fixed, f, d[evidence.Fixed], e)
							}
						})
						if mode.diff {
							for r := range gotD {
								if g, w := diffState(gotD[r]), diffState(wantD[r]); g != w {
									t.Fatalf("%s: regime %d diff evidence differs from %d sequential merges:\n%s", name, r, k, firstDiff(g, w))
								}
								dense += sameHists(t, name, gotD[r], wantD[r])
							}
							if held && mode.stat {
								rebinned += pastRebin(gotD)
							}
						}
						if mode.stat {
							if g, w := evidence.EngineState(gotE), evidence.EngineState(wantE); g != w {
								t.Fatalf("%s: engine differs from %d sequential merges:\n%s", name, k, firstDiff(g, w))
							}
							g, w := gotE.Verdicts(), wantE.Verdicts()
							if fmt.Sprintf("%#v", g) != fmt.Sprintf("%#v", w) {
								t.Fatalf("%s: verdicts differ from %d sequential merges", name, k)
							}
						}
					}
				}
			}
		}
	}
	if dense == 0 {
		t.Error("no case merged into a dense evidence histogram")
	}
	if rebinned == 0 {
		t.Error("no case merged into an MI estimator past its rebin")
	}
}

// diffState renders what the diff channel's tests read of d, each float
// by its bits.
func diffState(d *evidence.Diff) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runs %d\n", d.Runs)
	for _, inv := range d.Invs {
		fmt.Fprintf(&b, "inv %s %s presence %s\n", inv.StackID, inv.Kernel, floatBits(inv.Presence))
		for blk, s := range inv.Sites {
			for _, p := range s.Pairs {
				fmt.Fprintf(&b, " pair %d %v %s\n", blk, p.Pair, floatBits(p.Rec))
			}
			for j, visit := range s.Mems {
				for mi, f := range visit {
					if f == nil {
						fmt.Fprintf(&b, " mem %d.%d.%d none\n", blk, j, mi)
						continue
					}
					fmt.Fprintf(&b, " mem %d.%d.%d %v %v cells ", blk, j, mi, f.Space, f.Store)
					var buf []byte
					for _, c := range f.Hist.Cells() {
						buf = strconv.AppendUint(buf, c.Addr, 16)
						buf = append(buf, ':')
						buf = strconv.AppendInt(buf, c.Count, 10)
						buf = append(buf, ' ')
					}
					b.Write(buf)
					fmt.Fprintf(&b, "means %s spreads %s\n", floatBits(f.Means), floatBits(f.Spreads))
				}
			}
		}
	}
	return b.String()
}

func floatBits(xs []float64) string {
	var b []byte
	for _, x := range xs {
		b = strconv.AppendUint(b, math.Float64bits(x), 16)
		b = append(b, ' ')
	}
	return string(b)
}

// sameHists requires a KS distance of 0 between each memory record's
// histograms in got and want, which diffState found equal site for site,
// and returns how many of got's histograms hold dense counts: Cells
// returns a histogram's own cells in the cell state, the same slice each
// call, and builds them afresh from dense counts.
func sameHists(t *testing.T, name string, got, want *evidence.Diff) (dense int) {
	t.Helper()
	for i, inv := range got.Invs {
		for blk, s := range inv.Sites {
			for j, visit := range s.Mems {
				for mi, f := range visit {
					if f == nil || f.Runs() == 0 {
						continue
					}
					w := want.Invs[i].Sites.Mem(evidence.MemKey{Block: blk, Visit: j, Mem: mi})
					if d, n, m := adcfg.KSDistance(&f.Hist, &w.Hist); d != 0 || n != m {
						t.Fatalf("%s: %s block %d visit %d mem %d: KS distance %v over %d and %d accesses", name, inv.StackID, blk, j, mi, d, n, m)
					}
					if a, b := f.Hist.Cells(), f.Hist.Cells(); len(a) > 0 && &a[0] != &b[0] {
						dense++
					}
				}
			}
		}
	}
	return dense
}

// pastRebin counts the memory sites of d whose fixed- and random-regime
// histograms together hold more addresses than an MI estimator keeps
// exact cells for: the engine merged beside d has rebinned their
// estimators. The two regimes' invocations align alike here, as every
// run of the suite launches the same kernel sequence.
func pastRebin(d [2]*evidence.Diff) (n int) {
	if len(d[0].Invs) != len(d[1].Invs) {
		return 0
	}
	for i, inv := range d[evidence.Fixed].Invs {
		for blk, s := range inv.Sites {
			for j, visit := range s.Mems {
				for mi, f := range visit {
					r := d[evidence.Random].Invs[i].Sites.Mem(evidence.MemKey{Block: blk, Visit: j, Mem: mi})
					if f == nil || r == nil {
						continue
					}
					addrs := make(map[uint64]bool)
					for _, h := range [2]*adcfg.EvidenceHist{&f.Hist, &r.Hist} {
						for _, c := range h.Cells() {
							addrs[c.Addr] = true
						}
					}
					if len(addrs) > evidence.DefaultMIBins {
						n++
					}
				}
			}
		}
	}
	return n
}

// firstDiff returns the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
