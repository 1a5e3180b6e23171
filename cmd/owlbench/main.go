// Command owlbench regenerates the paper's evaluation artifacts: Table I
// (capability matrix), Table II (platform), Table III (leaks detected),
// Table IV (performance), Fig. 5 (trace-size growth), and the RQ3 baseline
// comparison.
//
// Usage:
//
//	owlbench -all            # everything at the quick scale
//	owlbench -table 3 -paper # Table III at the paper's 100+100 runs
//	owlbench -fig 5
//	owlbench -rq 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"owl/internal/experiments"
	"owl/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owlbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("owlbench", flag.ContinueOnError)
	var (
		table   = fs.Int("table", 0, "regenerate one table (1-4)")
		fig     = fs.Int("fig", 0, "regenerate one figure (5)")
		rq      = fs.Int("rq", 0, "regenerate one research-question comparison (3)")
		abl     = fs.Bool("ablations", false, "regenerate the design-choice ablation table")
		ext     = fs.Bool("extensions", false, "run the beyond-the-paper extension scenarios")
		all     = fs.Bool("all", false, "regenerate everything")
		paper   = fs.Bool("paper", false, "use the paper's 100+100 execution counts")
		seed    = fs.Int64("seed", 1, "deterministic seed")
		metrics = fs.Bool("metrics", false, "after the runs, print a span-derived per-phase latency breakdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.QuickConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = *seed
	var rec *obs.Recorder
	if *metrics {
		rec = obs.NewRecorder(0)
		cfg.Context = obs.WithRecorder(context.Background(), rec)
	}

	if !*all && *table == 0 && *fig == 0 && *rq == 0 && !*abl && !*ext {
		return fmt.Errorf("nothing selected; use -all, -table N, -fig 5, -rq 3, -ablations, or -extensions")
	}

	var suiteResults []experiments.Result
	needSuite := *all || *table == 3 || *table == 4
	if needSuite {
		var err error
		suiteResults, err = experiments.RunSuite(cfg)
		if err != nil {
			return err
		}
	}

	if *all || *table == 1 {
		fmt.Println(experiments.RenderTable1())
	}
	if *all || *table == 2 {
		fmt.Println(experiments.RenderTable2())
	}
	if *all || *table == 3 {
		fmt.Println(experiments.RenderTable3(suiteResults))
	}
	if *all || *table == 4 {
		fmt.Println(experiments.RenderTable4(suiteResults))
	}
	if *all || *fig == 5 {
		points, err := experiments.Fig5(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig5(points))
	}
	if *all || *rq == 3 {
		rows, err := experiments.RQ3(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderRQ3(rows))
	}
	if *all || *abl {
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderAblations(rows))
	}
	if *all || *ext {
		rows, err := experiments.Extensions(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderExtensions(rows))
	}
	if rec != nil {
		printSpanMetrics(rec)
	}
	return nil
}

// printSpanMetrics renders the recorder's per-span-name duration
// aggregates — where the experiments' wall-clock actually went, split by
// pipeline phase.
func printSpanMetrics(rec *obs.Recorder) {
	aggs := rec.Durations()
	if len(aggs) == 0 {
		fmt.Println("no spans recorded (did any experiment run detections?)")
		return
	}
	names := make([]string, 0, len(aggs))
	for name := range aggs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return aggs[names[i]].Sum > aggs[names[j]].Sum })
	fmt.Println("span-derived phase breakdown:")
	fmt.Printf("%-18s %10s %14s %14s\n", "span", "count", "total ms", "avg ms")
	fmt.Println(strings.Repeat("-", 60))
	for _, name := range names {
		a := aggs[name]
		totalMS := float64(a.Sum) / float64(time.Millisecond)
		fmt.Printf("%-18s %10d %14.3f %14.3f\n", name, a.Count, totalMS, totalMS/float64(a.Count))
	}
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Printf("(%d spans evicted from the flight recorder; totals undercount)\n", dropped)
	}
}
