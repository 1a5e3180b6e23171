// Command owltrace records, inspects, and diffs program traces — the raw
// material of Owl's analysis — and inspects the Chrome trace-event
// timelines owl -trace and owld emit.
//
// Usage:
//
//	owltrace record -program libgpucrypto/aes128 -input 0123456789abcdef -o a.json
//	owltrace show a.json
//	owltrace diff a.json b.json
//	owltrace disasm -program libgpucrypto/rsa
//	owltrace timeline timeline.json
//	owltrace validate timeline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"owl/internal/core"
	"owl/internal/experiments"
	"owl/internal/myers"
	"owl/internal/obs"
	"owl/internal/owlc"
	"owl/internal/trace"
	"owl/internal/workloads/dummy"
	"owl/internal/workloads/gpucrypto"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owltrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: owltrace record|show|diff|disasm|compile|timeline|validate ...")
	}
	switch args[0] {
	case "record":
		return cmdRecord(args[1:])
	case "show":
		return cmdShow(args[1:])
	case "diff":
		return cmdDiff(args[1:])
	case "disasm":
		return cmdDisasm(args[1:])
	case "compile":
		return cmdCompile(args[1:])
	case "timeline":
		return cmdTimeline(args[1:])
	case "validate":
		return cmdValidate(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func findTarget(name string) (*experiments.Target, error) {
	targets, err := experiments.Suite()
	if err != nil {
		return nil, err
	}
	targets = append(targets, experiments.Target{
		Name: "dummy", Group: "Dummy", Program: dummy.New(),
		Inputs: [][]byte{{1, 2, 3, 4}}, Gen: dummy.Gen(4),
	})
	for i := range targets {
		if targets[i].Program.Name() == name {
			return &targets[i], nil
		}
	}
	return nil, fmt.Errorf("unknown program %q", name)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	program := fs.String("program", "", "program to trace")
	input := fs.String("input", "", "secret input (literal bytes; empty uses the program's first sample input)")
	out := fs.String("o", "trace.json", "output file (.json or .gob)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	target, err := findTarget(*program)
	if err != nil {
		return err
	}
	in := []byte(*input)
	if len(in) == 0 {
		in = target.Inputs[0]
	}
	opts := core.DefaultOptions()
	opts.Seed = *seed
	det, err := core.NewDetector(opts)
	if err != nil {
		return err
	}
	tr, err := det.RecordOnce(target.Program, in)
	if err != nil {
		return err
	}
	if err := tr.Save(*out); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d launches, %d allocs, %d bytes -> %s\n",
		tr.Program, len(tr.Invocations), len(tr.Allocs), tr.SizeBytes(), *out)
	return nil
}

func cmdShow(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: owltrace show <trace.json>")
	}
	tr, err := trace.Load(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("program: %s\nhash: %x\nsize: %d bytes\n", tr.Program, tr.Hash(), tr.SizeBytes())
	fmt.Printf("allocations (%d):\n", len(tr.Allocs))
	for _, a := range tr.Allocs {
		fmt.Printf("  #%d %6d words @ %s\n", a.ID, a.Words, a.Site)
	}
	fmt.Printf("kernel invocations (%d):\n", len(tr.Invocations))
	for _, inv := range tr.Invocations {
		var accesses int64
		for _, n := range inv.Graph.Nodes {
			for _, v := range n.Visits {
				for _, h := range v.Mems {
					if h != nil {
						accesses += h.Total()
					}
				}
			}
		}
		fmt.Printf("  [%d] %s grid=%dx%d: %d warps, %d blocks, %d edges, %d accesses\n",
			inv.Seq, inv.StackID, inv.Grid.Count(), inv.Block.Count(),
			inv.Graph.Warps, len(inv.Graph.Nodes), len(inv.Graph.Edges()), accesses)
	}
	return nil
}

func cmdDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: owltrace diff <a.json> <b.json>")
	}
	a, err := trace.Load(args[0])
	if err != nil {
		return err
	}
	b, err := trace.Load(args[1])
	if err != nil {
		return err
	}
	if a.Hash() == b.Hash() {
		fmt.Println("traces are canonically identical")
		return nil
	}
	fmt.Println("traces differ:")
	ops := myers.Diff(a.StackSeq(), b.StackSeq())
	for _, op := range ops {
		switch op.Kind {
		case myers.Delete:
			fmt.Printf("  - launch %s (only in %s)\n", a.Invocations[op.AIdx].StackID, args[0])
		case myers.Insert:
			fmt.Printf("  + launch %s (only in %s)\n", b.Invocations[op.BIdx].StackID, args[1])
		case myers.Match:
			ia, ib := a.Invocations[op.AIdx], b.Invocations[op.BIdx]
			if ia.Graph.Equal(ib.Graph) {
				continue
			}
			fmt.Printf("  ~ %s: A-DCFGs differ", ia.StackID)
			details := graphDiff(ia, ib)
			if details != "" {
				fmt.Printf(" (%s)", details)
			}
			fmt.Println()
		}
	}
	return nil
}

// graphDiff summarizes which attribute class differs between two aligned
// invocations.
func graphDiff(a, b *trace.Invocation) string {
	if len(a.Graph.Nodes) != len(b.Graph.Nodes) {
		return fmt.Sprintf("blocks %d vs %d", len(a.Graph.Nodes), len(b.Graph.Nodes))
	}
	if ea, eb := len(a.Graph.Edges()), len(b.Graph.Edges()); ea != eb {
		return fmt.Sprintf("edges %d vs %d", ea, eb)
	}
	for id, na := range a.Graph.Nodes {
		nb := b.Graph.Nodes[id]
		if nb == nil {
			return fmt.Sprintf("block %d absent in second trace", id)
		}
		if len(na.Visits) != len(nb.Visits) {
			return fmt.Sprintf("block %d visits %d vs %d", id, len(na.Visits), len(nb.Visits))
		}
		for j := range na.Visits {
			va, vb := na.Visits[j], nb.Visits[j]
			for mi := range va.Mems {
				if mi >= len(vb.Mems) {
					return fmt.Sprintf("block %d visit %d memory shapes differ", id, j)
				}
				ha, hb := va.Mems[mi], vb.Mems[mi]
				if ha == nil || hb == nil {
					continue
				}
				if !slices.Equal(ha.Cells, hb.Cells) {
					return fmt.Sprintf("block %d visit %d mem %d address histograms differ", id, j, mi)
				}
			}
		}
	}
	return "transition counts differ"
}

// cmdValidate checks a Chrome trace-event timeline's invariants — the
// exact check CI's obs-smoke step runs over owl -trace output. With
// -min-procs it additionally requires spans from at least N distinct
// processes, the smoke check that a fleet trace really merged remote
// worker spans rather than only coordinator-side dispatch spans.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	minProcs := fs.Int("min-procs", 0, "require spans from at least this many distinct processes (pids)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: owltrace validate [-min-procs N] <timeline.json>")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	events, _ := obs.DecodeChromeTrace(data)
	pids := make(map[int]bool)
	for _, ev := range events {
		if ev.Ph == "B" {
			pids[ev.PID] = true
		}
	}
	if *minProcs > 0 && len(pids) < *minProcs {
		return fmt.Errorf("%s: spans from %d process(es), want >= %d (fleet merge missing?)", path, len(pids), *minProcs)
	}
	fmt.Printf("%s: valid trace, %d events, %d process(es)\n", path, len(events), len(pids))
	return nil
}

// cmdTimeline summarizes a Chrome trace-event timeline as text: per-span
// durations aggregated by name, plus the counter series. For the visual
// timeline, load the same file in https://ui.perfetto.dev.
func cmdTimeline(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: owltrace timeline <timeline.json>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	events, err := obs.DecodeChromeTrace(data)
	if err != nil {
		return err
	}

	// Pair B/E per (pid, tid) to recover span durations; the validator
	// already guaranteed each track's events form a properly nested
	// sequence. Keying by tid alone would cross-pair spans from different
	// processes in a merged fleet trace, where every worker reuses tid 1+.
	type agg struct {
		count int
		total float64 // microseconds
		max   float64
	}
	type open struct {
		name string
		ts   float64
	}
	type track struct{ pid, tid int }
	spanAggs := make(map[string]*agg)
	stacks := make(map[track][]open)
	type ctr struct {
		samples        int
		min, max, last float64
	}
	counters := make(map[string]*ctr)
	var tMin, tMax float64
	var spotted bool
	for _, ev := range events {
		switch ev.Ph {
		case "B", "E", "C":
			if !spotted || ev.TS < tMin {
				tMin = ev.TS
			}
			if !spotted || ev.TS > tMax {
				tMax = ev.TS
			}
			spotted = true
		}
		switch ev.Ph {
		case "B":
			k := track{pid: ev.PID, tid: ev.TID}
			stacks[k] = append(stacks[k], open{name: ev.Name, ts: ev.TS})
		case "E":
			k := track{pid: ev.PID, tid: ev.TID}
			st := stacks[k]
			top := st[len(st)-1]
			stacks[k] = st[:len(st)-1]
			a := spanAggs[top.name]
			if a == nil {
				a = &agg{}
				spanAggs[top.name] = a
			}
			d := ev.TS - top.ts
			a.count++
			a.total += d
			if d > a.max {
				a.max = d
			}
		case "C":
			v, _ := ev.Args["value"].(float64)
			c := counters[ev.Name]
			if c == nil {
				c = &ctr{min: v, max: v}
				counters[ev.Name] = c
			}
			c.samples++
			if v < c.min {
				c.min = v
			}
			if v > c.max {
				c.max = v
			}
			c.last = v
		}
	}

	fmt.Printf("%s: %d events, %.3f ms wall clock\n\n", args[0], len(events), (tMax-tMin)/1e3)
	names := make([]string, 0, len(spanAggs))
	for name := range spanAggs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return spanAggs[names[i]].total > spanAggs[names[j]].total })
	fmt.Printf("%-18s %8s %12s %12s %12s\n", "span", "count", "total ms", "avg ms", "max ms")
	fmt.Println(strings.Repeat("-", 66))
	for _, name := range names {
		a := spanAggs[name]
		fmt.Printf("%-18s %8d %12.3f %12.3f %12.3f\n",
			name, a.count, a.total/1e3, a.total/float64(a.count)/1e3, a.max/1e3)
	}
	if len(counters) > 0 {
		cnames := make([]string, 0, len(counters))
		for name := range counters {
			cnames = append(cnames, name)
		}
		sort.Strings(cnames)
		fmt.Printf("\n%-18s %8s %14s %14s %14s\n", "counter", "samples", "min", "max", "last")
		fmt.Println(strings.Repeat("-", 72))
		for _, name := range cnames {
			c := counters[name]
			fmt.Printf("%-18s %8d %14.2f %14.2f %14.2f\n", name, c.samples, c.min, c.max, c.last)
		}
	}
	return nil
}

// cmdCompile compiles an OwlC source file and prints the disassembly.
func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	file := fs.String("file", "", "OwlC source file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("usage: owltrace compile -file kernel.owlc")
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	k, err := owlc.Compile(string(src))
	if err != nil {
		return err
	}
	fmt.Print(k.Disasm())
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	program := fs.String("program", "", "program whose kernels to disassemble")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Kernels are exposed by the workload constructors; reach them through
	// the known program types.
	switch *program {
	case "libgpucrypto/aes128":
		fmt.Print(gpucrypto.NewAES().Kernel().Disasm())
	case "libgpucrypto/aes128-sg":
		fmt.Print(gpucrypto.NewAES(gpucrypto.WithScatterGather()).Kernel().Disasm())
	case "libgpucrypto/rsa":
		fmt.Print(gpucrypto.NewRSA().Kernel().Disasm())
	case "libgpucrypto/rsa-ladder":
		fmt.Print(gpucrypto.NewRSA(gpucrypto.WithMontgomeryLadder()).Kernel().Disasm())
	case "dummy":
		fmt.Print(dummy.New().Kernel().Disasm())
	default:
		return fmt.Errorf("disasm supports the gpucrypto programs and dummy; got %q", *program)
	}
	return nil
}
