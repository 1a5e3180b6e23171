package adcfg_test

import (
	"math/rand"
	"slices"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/trace"
	"owl/internal/workloads/gpucrypto"
	"owl/internal/workloads/jpeg"
)

// TestEvidenceMatchesMerge merges recorded runs into core evidence and,
// with Graph.Merge, into one reference graph per invocation: aes128
// under a fixed and under random keys, and nvjpeg encode under random
// images. Every memory record's merged histogram must equal the reference
// histogram, and every node's per-run transition counts must sum to the
// reference node's pair counts.
func TestEvidenceMatchesMerge(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 7
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := jpeg.NewEncoder(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	aes := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	fixedKey := func(*rand.Rand) []byte { return []byte("0123456789abcdef") }
	var cells, dense, empty int
	for _, tc := range []struct {
		name string
		p    cuda.Program
		gen  cuda.InputGen
	}{
		{"aes128 fixed", aes, fixedKey},
		{"aes128 random", aes, gpucrypto.KeyGen()},
		{"nvjpeg encode random", enc, jpeg.GenImage(8, 8)},
	} {
		rng := rand.New(rand.NewSource(1))
		ev := evidence.NewDiff(12)
		var ref []*adcfg.Graph
		var stacks []string
		for run := 0; run < 12; run++ {
			tr, err := det.RecordOnce(tc.p, tc.gen(rng))
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				stacks = tr.StackSeq()
				for _, inv := range tr.Invocations {
					ref = append(ref, adcfg.NewGraph(inv.Kernel))
				}
			} else if !slices.Equal(tr.StackSeq(), stacks) {
				t.Fatalf("%s: run %d launched a different invocation sequence", tc.name, run)
			}
			ev.AddRun(tr)
			for i, inv := range tr.Invocations {
				ref[i].Merge(inv.Graph)
			}
			trace.Release(tr)
		}
		if len(ev.Invs) != len(ref) {
			t.Fatalf("%s: %d evidence invocations, %d reference graphs", tc.name, len(ev.Invs), len(ref))
		}
		for i, inv := range ev.Invs {
			g := ref[i]
			hists := 0
			for block, n := range g.Nodes {
				for j, v := range n.Visits {
					for mi, h := range v.Mems {
						if h == nil {
							continue
						}
						hists++
						key := evidence.MemKey{Block: block, Visit: j, Mem: mi}
						f := inv.Sites.Mem(key)
						if f == nil {
							t.Fatalf("%s: no record for %v", tc.name, key)
						}
						if got := f.Hist.Cells(); !slices.Equal(got, h.Cells) {
							t.Fatalf("%s: %v merged to %v, Merge gives %v", tc.name, key, got, h.Cells)
						}
						if f.Space != h.Space || f.Store != h.Store {
							t.Fatalf("%s: %v is %v/%v, Merge gives %v/%v", tc.name, key, f.Space, f.Store, h.Space, h.Store)
						}
						switch {
						case len(h.Cells) == 0:
							empty++
						case f.Hist.Dense():
							dense++
						default:
							cells++
						}
					}
				}
				pairs := inv.Sites.Block(block).Pairs
				if len(pairs) != len(n.Pairs) {
					t.Fatalf("%s: block %d has %d sampled pairs, Merge gives %d", tc.name, block, len(pairs), len(n.Pairs))
				}
				for _, p := range pairs {
					var sum float64
					for _, x := range p.Rec.AppendTo(nil) {
						sum += x
					}
					if c := n.Pairs[p.Pair]; sum != float64(c) {
						t.Fatalf("%s: block %d pair %v sums to %v, Merge gives %d", tc.name, block, p.Pair, sum, c)
					}
				}
			}
			records, blocks := 0, 0
			for _, blk := range inv.Sites {
				if len(blk.Pairs) > 0 || len(blk.Mems) > 0 {
					blocks++
				}
				for _, visit := range blk.Mems {
					for _, f := range visit {
						if f != nil {
							records++
						}
					}
				}
			}
			if hists != records || len(g.Nodes) != blocks {
				t.Fatalf("%s: %d records over %d blocks, Merge gives %d histograms over %d nodes",
					tc.name, records, blocks, hists, len(g.Nodes))
			}
		}
	}
	t.Logf("records: %d cells, %d dense, %d empty", cells, dense, empty)
	if cells == 0 || dense == 0 {
		t.Fatalf("records seen: %d cells, %d dense; test is vacuous", cells, dense)
	}
}
