// Command owl runs side-channel leakage detection on one of the evaluated
// CUDA programs and prints the located leaks.
//
// Usage:
//
//	owl -list
//	owl -program libgpucrypto/aes128
//	owl -program pytorch/nllloss -fixed-runs 100 -random-runs 100 -json
//	owl -program libgpucrypto/aes128 -evidence tvla -tvla-threshold 4.5 -early-stop
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"owl/internal/cluster"
	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/experiments"
	"owl/internal/gpu"
	"owl/internal/htmlreport"
	"owl/internal/mitigate"
	"owl/internal/obs"
	"owl/internal/quantify"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("owl", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list available programs and exit")
		program    = fs.String("program", "", "program to analyze (see -list)")
		fixedRuns  = fs.Int("fixed-runs", 40, "fixed-input executions per input class")
		randomRuns = fs.Int("random-runs", 40, "random-input executions per input class")
		confidence = fs.Float64("confidence", 0.95, "KS confidence level alpha")
		seed       = fs.Int64("seed", 1, "deterministic seed")
		workers    = fs.String("workers", "1", "parallel trace-collection workers: a count, or comma-separated owlworker hosts for distributed recording (results are deterministic either way)")
		welch      = fs.Bool("welch", false, "use Welch's t-test instead of KS (ablation)")
		noRebase   = fs.Bool("no-rebase", false, "disable address rebasing (ablation)")
		evidence   = fs.String("evidence", "diff", "evidence channel: diff (paper's set-difference tests), tvla (streaming Welch-t + mutual information), or both")
		channels   = fs.String("channels", "", "comma-separated observable channels: adcfg (always on), cost (bank-conflict/coalescing/power-proxy sites; implies -evidence both unless set)")
		tvlaThresh = fs.Float64("tvla-threshold", 0, "TVLA |t| rejection threshold for -evidence tvla/both (0 selects the standard 4.5)")
		earlyStop  = fs.Bool("early-stop", false, "with -evidence tvla/both: stop recording once every site's statistical verdict stabilizes")
		follow     = fs.Bool("follow", false, "with -evidence tvla/both: print the per-round evidence trajectory (sites, leaks, max |t|) to stderr as recording progresses")
		minRuns    = fs.Int("min-runs", 0, "with -early-stop: runs per regime before the first stop check (0 selects the default)")
		asJSON     = fs.Bool("json", false, "emit the report as JSON")
		doQuantify = fs.Int("quantify", 0, "additionally estimate leakage bits for the top N features")
		htmlOut    = fs.String("html", "", "additionally write a standalone HTML report to this path")
		baseline   = fs.String("baseline", "", "CI mode: compare leak locations against this JSON report; non-zero exit on new leaks")
		saveBase   = fs.String("save-baseline", "", "write the report JSON to this path (for -baseline)")
		interpN    = fs.Int("interp-bench", 0, "run N untraced executions of the program and report interpreter throughput instead of detecting")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event timeline of the detection to this path (open in Perfetto)")
		doMitigate = fs.Bool("mitigate", false, "repair the flagged leaks (if-conversion, oblivious access) and re-detect; non-zero exit on residual or new leaks")
		mitigOut   = fs.String("mitigate-out", "", "with -mitigate: write the mitigation result (transform log, before/after site diff) as JSON to this path")
		sitesOut   = fs.String("report-json", "", "write the screened leak sites (per-block/per-instruction, with source annotations) as JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	targets, err := experiments.FullSuite()
	if err != nil {
		return err
	}
	if *list {
		for _, t := range targets {
			fmt.Printf("%-14s %s\n", t.Group, t.Program.Name())
		}
		return nil
	}
	if *program == "" {
		return fmt.Errorf("missing -program (use -list to enumerate)")
	}
	var target *experiments.Target
	for i := range targets {
		if targets[i].Program.Name() == *program {
			target = &targets[i]
			break
		}
	}
	if target == nil {
		return fmt.Errorf("unknown program %q (use -list)", *program)
	}

	if *interpN > 0 {
		return interpBench(target, *interpN, *seed)
	}

	var chans []string
	for _, c := range strings.Split(*channels, ",") {
		if c = strings.TrimSpace(c); c != "" {
			chans = append(chans, c)
		}
	}
	mode := core.EvidenceMode(*evidence)
	costRequested := false
	for _, c := range chans {
		if c == core.ChannelCost {
			costRequested = true
		}
	}
	if costRequested {
		// Cost sites are statistical verdicts: with -evidence left at its
		// default, upgrade to "both"; an explicit -evidence diff is a
		// contradiction worth surfacing rather than silently overriding.
		evidenceSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "evidence" {
				evidenceSet = true
			}
		})
		if !evidenceSet {
			mode = core.EvidenceBoth
		} else if mode == core.EvidenceDiff {
			return fmt.Errorf("-channels cost needs a statistical channel; use -evidence tvla or -evidence both")
		}
	}

	opts := core.DefaultOptions()
	opts.FixedRuns = *fixedRuns
	opts.RandomRuns = *randomRuns
	opts.Confidence = *confidence
	opts.Seed = *seed
	opts.UseWelch = *welch
	opts.Rebase = !*noRebase
	opts.Evidence = core.EvidenceConfig{
		Mode:          mode,
		Channels:      chans,
		TVLAThreshold: *tvlaThresh,
		EarlyStop: core.EarlyStopPolicy{
			Enabled: *earlyStop,
			MinRuns: *minRuns,
		},
	}
	if *follow {
		if mode != core.EvidenceTVLA && mode != core.EvidenceBoth {
			return fmt.Errorf("-follow needs a statistical channel; add -evidence tvla or -evidence both")
		}
		opts.OnEvidence = func(s core.EvidenceSample) {
			stopped := ""
			if s.EarlyStopped {
				stopped = "  [early stop]"
			}
			fmt.Fprintf(os.Stderr, "evidence: round %d  runs=%d  sites=%d  leaks=%d  max|t|=%.2f  stable=%d%s\n",
				s.Round, s.Runs, s.Sites, s.LeakSites, s.MaxAbsT, s.StableChecks, stopped)
		}
	}
	workerHosts, workerCount, err := parseWorkersFlag(*workers)
	if err != nil {
		return err
	}
	if len(workerHosts) > 0 {
		if *doMitigate {
			return fmt.Errorf("-mitigate re-records hardened kernel variants that remote registries don't have; use a local recording strategy")
		}
		fleet, err := cluster.NewFleet(workerHosts, cluster.Options{})
		if err != nil {
			return err
		}
		opts.Runner = fleet.Runner(cluster.RunnerConfig{})
	} else {
		opts.Workers = workerCount
	}
	det, err := core.NewDetector(opts)
	if err != nil {
		return err
	}
	// -trace attaches a flight recorder to the detection context; every
	// pipeline phase, run, kernel launch, and merge stall lands in it.
	ctx := context.Background()
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder(0)
		ctx = obs.WithRecorder(ctx, rec)
	}

	if *doMitigate {
		err := runMitigate(ctx, target, opts, *mitigOut, *sitesOut)
		if rec != nil {
			if terr := writeTrace(rec, *traceOut); terr != nil {
				return terr
			}
			fmt.Fprintf(os.Stderr, "timeline written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
		}
		return err
	}

	report, err := det.DetectContext(ctx, target.Program, target.Inputs, target.Gen)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(rec, *traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "timeline written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
	if *sitesOut != "" {
		if err := writeSites(report, *sitesOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "leak sites written to %s\n", *sitesOut)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		fmt.Print(report.Summary())
	}

	// The estimate is computed once for both outputs: it draws from the
	// detector's RNG, so a second call would show different numbers.
	var q *quantify.Report
	if *doQuantify > 0 {
		q, err = quantify.Quantify(det, target.Program, target.Inputs[0], target.Gen, *fixedRuns)
		if err != nil {
			return err
		}
		fmt.Printf("\ntop %d features by leakage (Jensen-Shannon bits):\n", *doQuantify)
		for _, e := range q.Top(*doQuantify) {
			fmt.Printf("  [%s] %-40s JSD=%.3f bits  H(rnd)-H(fix)=%.3f bits\n",
				e.Kind, e.Location(), e.JSDBits, e.EntropyDeltaBits)
		}
	}

	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := htmlreport.Render(f, htmlreport.Page{Report: report, Quantify: q}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "HTML report written to %s\n", *htmlOut)
	}

	if *saveBase != "" {
		if err := saveReport(report, *saveBase); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "baseline written to %s\n", *saveBase)
	}
	if *baseline != "" {
		fresh, err := compareBaseline(report, *baseline)
		if err != nil {
			return err
		}
		if len(fresh) > 0 {
			for _, loc := range fresh {
				fmt.Fprintf(os.Stderr, "NEW LEAK: %s\n", loc)
			}
			return fmt.Errorf("%d leak(s) not present in baseline %s", len(fresh), *baseline)
		}
		fmt.Fprintln(os.Stderr, "no new leaks versus baseline")
	}
	return nil
}

// parseWorkersFlag reads the -workers value: a plain integer selects the
// local N-worker recording strategy, anything else is a comma-separated
// owlworker host list for distributed recording.
func parseWorkersFlag(v string) (hosts []string, n int, err error) {
	v = strings.TrimSpace(v)
	if c, cerr := strconv.Atoi(v); cerr == nil {
		if c < 0 {
			return nil, 0, fmt.Errorf("-workers %d: count must be >= 0", c)
		}
		return nil, c, nil
	}
	for _, h := range strings.Split(v, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return nil, 0, fmt.Errorf("-workers %q: want a count or comma-separated hosts", v)
	}
	return hosts, 0, nil
}

// runMitigate drives the detect→rewrite→re-verify loop on one target and
// prints the before/after leak diff plus the transform log. A residual or
// newly introduced leak is an error, so CI can gate on the exit status.
func runMitigate(ctx context.Context, target *experiments.Target, opts core.Options, outPath, sitesPath string) error {
	res, err := mitigate.Repair(ctx, target.Program, target.Inputs, target.Gen, mitigate.Options{Detector: opts})
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mitigation result written to %s\n", outPath)
	}
	if sitesPath != "" {
		if err := writeSites(res.After, sitesPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hardened-program leak sites written to %s\n", sitesPath)
	}
	if n := len(res.AfterSites); n > 0 {
		return fmt.Errorf("%d leak site(s) remain after mitigation", n)
	}
	if n := len(res.New); n > 0 {
		return fmt.Errorf("mitigation introduced %d new leak site(s)", n)
	}
	return nil
}

// writeSites exports the screened leak sites — per block and per memory
// instruction, with the source annotations the compiler attached — as the
// stable JSON contract external tooling consumes.
func writeSites(report *core.Report, path string) error {
	doc := struct {
		Program       string          `json:"program"`
		Inputs        int             `json:"inputs"`
		Classes       int             `json:"classes"`
		PotentialLeak bool            `json:"potential_leak"`
		Sites         []core.LeakSite `json:"sites"`
	}{
		Program:       report.Program,
		Inputs:        report.Inputs,
		Classes:       report.Classes,
		PotentialLeak: report.PotentialLeak,
		Sites:         report.Sites(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interpBench measures raw SIMT-interpreter throughput on one program: n
// untraced executions on fresh devices (the unit of work detection repeats
// hundreds of times), reported as simulated instructions per second.
func interpBench(target *experiments.Target, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	input := target.Inputs[0]
	var instrs int64
	start := time.Now()
	for i := 0; i < n; i++ {
		ctx, err := cuda.NewContext(gpu.DefaultConfig(), rng, nil)
		if err != nil {
			return err
		}
		if err := target.Program.Run(ctx, input); err != nil {
			return err
		}
		instrs += ctx.Stats().Instructions
		ctx.Close()
	}
	elapsed := time.Since(start)
	fmt.Printf("%s: %d executions in %v\n", target.Program.Name(), n, elapsed.Round(time.Millisecond))
	fmt.Printf("  %.0f instructions/execution\n", float64(instrs)/float64(n))
	fmt.Printf("  %.1f simulated MIPS\n", float64(instrs)/elapsed.Seconds()/1e6)
	fmt.Printf("  %.2f ms/execution\n", elapsed.Seconds()*1e3/float64(n))
	return nil
}

// writeTrace dumps the recorder's spans and counters as a Chrome
// trace-event file.
func writeTrace(rec *obs.Recorder, path string) error {
	spans, counters := rec.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans, counters); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveReport writes the report JSON for CI baselining.
func saveReport(report *core.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	return f.Close()
}

// compareBaseline returns the screened leak locations of report that do
// not appear in the stored baseline — the MicroWalk-CI workflow of
// failing a build only on regressions.
func compareBaseline(report *core.Report, path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	defer f.Close()
	var base core.Report
	if err := json.NewDecoder(f).Decode(&base); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	known := make(map[string]bool)
	for _, l := range base.Screened() {
		known[l.Location()] = true
	}
	var fresh []string
	for _, l := range report.Screened() {
		if !known[l.Location()] {
			fresh = append(fresh, l.Location())
		}
	}
	return fresh, nil
}
