package trace_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/core"
	"owl/internal/experiments"
	"owl/internal/trace"
)

// recordSuite records every FullSuite target's first two user inputs, the
// first twice, and one generated input, with the cost channel off and on.
func recordSuite(t *testing.T) []*trace.ProgramTrace {
	t.Helper()
	targets, err := experiments.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	var out []*trace.ProgramTrace
	for _, cost := range []bool{false, true} {
		opts := core.DefaultOptions()
		if cost {
			opts.Evidence = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
		}
		det, err := core.NewDetector(opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for _, tg := range targets {
			for _, in := range [][]byte{tg.Inputs[0], tg.Inputs[0], tg.Inputs[1], tg.Gen(rng)} {
				tr, err := det.RecordOnce(tg.Program, in)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, tr)
			}
		}
	}
	return out
}

// roundTrip returns t decoded from its gob or its JSON form.
func roundTrip(t *testing.T, tr *trace.ProgramTrace, json bool) *trace.ProgramTrace {
	t.Helper()
	var buf bytes.Buffer
	write, read := tr.WriteGob, trace.ReadGob
	if json {
		write, read = tr.WriteJSON, trace.ReadJSON
	}
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestEqualAgreesWithHash checks Equal against Hash equality over every
// pair of recorded FullSuite traces, and over each trace decoded from its
// gob and its JSON form: a decoded graph may hold nil maps and slices
// where the recorded one holds empty ones.
func TestEqualAgreesWithHash(t *testing.T) {
	recorded := recordSuite(t)
	all := slices.Clone(recorded)
	for _, tr := range recorded {
		all = append(all, roundTrip(t, tr, false), roundTrip(t, tr, true))
	}
	hashes := make([][32]byte, len(all))
	for i, tr := range all {
		hashes[i] = tr.Hash()
	}
	equal := 0
	for i, a := range all {
		for j, b := range all {
			if got, want := a.Equal(b), hashes[i] == hashes[j]; got != want {
				t.Fatalf("%s (trace %d) against %s (trace %d): Equal = %v, equal hashes = %v", a.Program, i, b.Program, j, got, want)
			}
			if i != j && hashes[i] == hashes[j] {
				equal++
			}
		}
	}
	if equal == 0 {
		t.Error("no two distinct traces are equal")
	}
}

// TestEqualSeesEveryMergedField mutates one field of a decoded copy of a
// recorded trace at a time, among those the evidence merge reads and
// those the canonical encoding holds, and requires Equal to be false both
// ways. The trace is aes128's, with the cost channel on, decoded from
// its gob and its JSON form.
func TestEqualSeesEveryMergedField(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Evidence = core.EvidenceConfig{Mode: core.EvidenceBoth, Channels: []string{core.ChannelADCFG, core.ChannelCost}}
	det, err := core.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := experiments.FindTarget("libgpucrypto/aes128")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := det.RecordOnce(tg.Program, tg.Inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*trace.ProgramTrace)
	}{
		{"program", func(t *trace.ProgramTrace) { t.Program += "x" }},
		{"alloc", func(t *trace.ProgramTrace) { t.Allocs[0].Words++ }},
		{"stack ID", func(t *trace.ProgramTrace) { t.Invocations[0].StackID += "x" }},
		{"kernel", func(t *trace.ProgramTrace) { t.Invocations[0].Kernel += "x" }},
		{"grid", func(t *trace.ProgramTrace) { t.Invocations[0].Grid.X = t.Invocations[0].Grid.Count() + 1 }},
		{"graph kernel", func(t *trace.ProgramTrace) { t.Invocations[0].Graph.Kernel += "x" }},
		{"warps", func(t *trace.ProgramTrace) { t.Invocations[0].Graph.Warps++ }},
		{"cost site total", func(t *trace.ProgramTrace) { t.Invocations[0].Cost[0].Total++ }},
		{"cost site events", func(t *trace.ProgramTrace) { t.Invocations[0].Cost[0].Events++ }},
		{"cost site dropped", func(t *trace.ProgramTrace) { t.Invocations[0].Cost = t.Invocations[0].Cost[1:] }},
		{"node dropped", func(t *trace.ProgramTrace) {
			g := t.Invocations[0].Graph
			for id := range g.Nodes {
				delete(g.Nodes, id)
				return
			}
		}},
		{"pair count", func(t *trace.ProgramTrace) {
			n := firstNode(t, false)
			for k := range n.Pairs {
				n.Pairs[k]++
				return
			}
		}},
		{"pair added", func(t *trace.ProgramTrace) { firstNode(t, false).Pairs[adcfg.PairKey{Src: 1 << 20, Dst: 1 << 20}] = 1 }},
		{"visit count", func(t *trace.ProgramTrace) { firstNode(t, false).Visits[0].Count++ }},
		{"cell address", func(t *trace.ProgramTrace) { firstHist(t).Cells[0].Addr += 1 << 32 }},
		{"cell count", func(t *trace.ProgramTrace) { firstHist(t).Cells[0].Count++ }},
		{"histogram space", func(t *trace.ProgramTrace) { firstHist(t).Space++ }},
		{"histogram store", func(t *trace.ProgramTrace) { h := firstHist(t); h.Store = !h.Store }},
		{"histogram dropped", func(t *trace.ProgramTrace) {
			for _, v := range firstNode(t, true).Visits {
				for i, h := range v.Mems {
					if h != nil {
						v.Mems[i] = nil
						return
					}
				}
			}
		}},
		{"histogram added", func(t *trace.ProgramTrace) {
			v := firstNode(t, true).Visits[0]
			v.Mems = append(v.Mems, &adcfg.MemHist{})
		}},
	}
	for _, json := range []bool{false, true} {
		for _, m := range mutations {
			a, b := roundTrip(t, orig, json), roundTrip(t, orig, json)
			if !a.Equal(b) || !a.Equal(orig) {
				t.Fatalf("json=%v: decoded copies are not Equal", json)
			}
			m.mutate(b)
			if a.Equal(b) || b.Equal(a) {
				t.Errorf("json=%v: %s mutated, still Equal", json, m.name)
			}
		}
	}
}

// firstNode returns the node of the first invocation with the lowest
// block ID among those with pairs, or with a histogram when mem is set.
func firstNode(t *trace.ProgramTrace, mem bool) *adcfg.Node {
	var best *adcfg.Node
	bestID := 0
	for id, n := range t.Invocations[0].Graph.Nodes {
		if (best == nil || id < bestID) && (len(n.Pairs) > 0 && !mem || mem && firstNodeHist(n) != nil) {
			best, bestID = n, id
		}
	}
	if best == nil {
		panic(fmt.Sprintf("no node with pairs or histograms in %s", t.Program))
	}
	return best
}

// firstHist returns the first histogram with cells of firstNode(t, true).
func firstHist(t *trace.ProgramTrace) *adcfg.MemHist { return firstNodeHist(firstNode(t, true)) }

func firstNodeHist(n *adcfg.Node) *adcfg.MemHist {
	for _, v := range n.Visits {
		for _, h := range v.Mems {
			if h != nil && len(h.Cells) > 0 {
				return h
			}
		}
	}
	return nil
}
