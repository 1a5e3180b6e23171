// Package owl is a differential side-channel leakage detector for CUDA
// applications, reproducing "Owl: Differential-based Side-Channel Leakage
// Detection for CUDA Applications" (DSN 2024) on a pure-Go SIMT simulator.
//
// A program under test is host code (a Program) that allocates device
// memory and launches device kernels on a Context, exactly as a CUDA
// application does. Owl records each execution into one A-DCFG per kernel
// invocation, classes user inputs by trace equality, and statistically
// compares fixed-input evidence against random-input evidence with
// Kolmogorov-Smirnov tests to locate three kinds of GPU leakage: kernel
// leaks (input-dependent launches), device control-flow leaks, and device
// data-flow leaks.
//
// Quick start:
//
//	det, err := owl.NewDetector(owl.DefaultOptions())
//	...
//	report, err := det.Detect(program, userInputs, randomInputGen)
//	fmt.Print(report.Summary())
//
// Kernels for custom programs are written against the device ISA with the
// Builder, and executed by the simulated GPU behind the Context — see
// examples/quickstart.
package owl

import (
	"context"
	"io"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/mitigate"
	"owl/internal/owlc"
	"owl/internal/trace"
)

// Program is a CUDA application under test: host code that drives device
// kernels through a Context. The input passed to Run is the secret input
// of the paper's threat model.
type Program = cuda.Program

// InputGen draws random secret inputs during the leakage-analysis phase.
type InputGen = cuda.InputGen

// Context is the host-side CUDA runtime handle (Malloc / Memcpy / Launch /
// Call for host stack frames / Rand for program non-determinism).
type Context = cuda.Context

// Options configures a Detector; start from DefaultOptions.
type Options = core.Options

// Progress is one pipeline progress observation delivered to
// Options.OnProgress: the current phase plus class and execution counters.
type Progress = core.Progress

// Pipeline phases reported via Options.OnProgress.
const (
	PhaseClassify = core.PhaseClassify
	PhaseRecord   = core.PhaseRecord
	PhaseAnalyze  = core.PhaseAnalyze
)

// Runner streams instrumented executions for the pipeline: each recorded
// trace is delivered to a TraceSink the moment its run completes, and the
// pipeline merges it through a reorder window keyed by request index so
// reports stay bit-identical to sequential recording. Options.Runner lets
// callers supply a shared worker pool (see internal/service for the
// daemon's bounded pool); the default runner honors Options.Workers. The
// two fields are mutually exclusive — NewDetector rejects setting both.
type Runner = core.Runner

// RunRequest is one recording request handed to a Runner.
type RunRequest = core.RunRequest

// RunResult pairs a recorded trace with its request index for delivery
// to a TraceSink.
type RunResult = core.RunResult

// TraceSink receives traces from a Runner as runs complete. Ownership of
// each delivered trace transfers to the sink.
type TraceSink = core.TraceSink

// Recipe is the one run recipe a detection hands its Runner: device,
// rebasing, observables, and the kernel-definition harvest. Its Record
// method executes one instrumented run; safe for concurrent use.
type Recipe = core.Recipe

// EvidenceConfig selects and configures the evidence channel(s) via
// Options.Evidence: the paper's set-difference channel ("diff", the
// default), the streaming statistical channel ("tvla": Welch's t with the
// TVLA |t| > 4.5 rule plus per-site mutual information), or "both" — and
// sequential early stopping of the recording phase.
type EvidenceConfig = core.EvidenceConfig

// EvidenceMode names an evidence channel selection.
type EvidenceMode = core.EvidenceMode

// Evidence channel modes for EvidenceConfig.Mode.
const (
	EvidenceDiff = core.EvidenceDiff
	EvidenceTVLA = core.EvidenceTVLA
	EvidenceBoth = core.EvidenceBoth
)

// EarlyStopPolicy configures sequential early stopping: recording
// proceeds in rounds and cancels the remaining run budget once every
// site's statistical verdict has stabilized.
type EarlyStopPolicy = core.EarlyStopPolicy

// Typed option-validation errors.
var (
	// ErrInvalidRunCount reports a zero, negative, or sub-minimum run
	// count in Options.FixedRuns/RandomRuns.
	ErrInvalidRunCount = core.ErrInvalidRunCount
	// ErrInvalidEvidenceConfig reports an unusable Options.Evidence.
	ErrInvalidEvidenceConfig = core.ErrInvalidEvidenceConfig
)

// Report is the outcome of a detection, with located leaks and the
// phase statistics of Table IV.
type Report = core.Report

// Leak is one located leak.
type Leak = core.Leak

// LeakKind classifies a leak.
type LeakKind = core.LeakKind

// Leak kinds (§IV-A): input-dependent kernel launches, device control-flow
// leakage, and device data-flow leakage.
const (
	KernelLeak      = core.KernelLeak
	ControlFlowLeak = core.ControlFlowLeak
	DataFlowLeak    = core.DataFlowLeak
)

// InputClass is one group of inputs with identical traces (phase 2).
type InputClass = core.InputClass

// Detector runs the three-phase Owl pipeline.
type Detector = core.Detector

// ProgramTrace is one recorded execution (phase 1 output).
type ProgramTrace = trace.ProgramTrace

// Kernel is a compiled device function.
type Kernel = isa.Kernel

// Builder emits device kernels with structured control flow.
type Builder = kbuild.Builder

// Reg is a device virtual register.
type Reg = isa.Reg

// Space identifies a device memory space.
type Space = isa.Space

// Device memory spaces.
const (
	Global   = isa.SpaceGlobal
	Shared   = isa.SpaceShared
	Constant = isa.SpaceConstant
	Local    = isa.SpaceLocal
)

// DeviceConfig sizes the simulated GPU.
type DeviceConfig = gpu.Config

// Dim3 is a CUDA grid/block extent.
type Dim3 = gpu.Dim3

// DevPtr is a device pointer.
type DevPtr = cuda.DevPtr

// NewDetector validates options and returns a detector. Detector.Detect
// runs to completion; Detector.DetectContext additionally honors
// cancellation and deadlines, aborting between instrumented executions —
// plain Detect delegates to it with context.Background().
func NewDetector(opts Options) (*Detector, error) { return core.NewDetector(opts) }

// DefaultOptions mirrors the paper's evaluation setup: 100 fixed and 100
// random executions per input class at confidence 0.95.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewKernelBuilder starts a device kernel with the given name and
// parameter count.
func NewKernelBuilder(name string, numParams int) *Builder {
	return kbuild.New(name, numParams)
}

// CompileKernel compiles OwlC source — a small CUDA-C-like kernel language
// (see internal/owlc) — to a device kernel:
//
//	k, err := owl.CompileKernel(`
//	    kernel scale(in, out, n) {
//	        if (tid < n) { out[tid] = in[tid] * 2; }
//	    }
//	`)
func CompileKernel(src string) (*Kernel, error) { return owlc.Compile(src) }

// LeakSite is the machine-readable form of one screened leak location,
// the stable contract exported by Report.Sites and consumed by the
// mitigation pass and external tooling.
type LeakSite = core.LeakSite

// MitigateOptions configures an automated repair (see Repair).
type MitigateOptions = mitigate.Options

// MitigateResult is the outcome of one repair: the transform log, the
// before/after leak-site diff, and the hardened kernel definitions.
type MitigateResult = mitigate.Result

// MitigateTransform records one attempted repair transform.
type MitigateTransform = mitigate.Transform

// ErrNotEquivalent reports that a hardened program diverged from the
// original under differential execution; Repair never returns a result in
// that state.
var ErrNotEquivalent = mitigate.ErrNotEquivalent

// Repair runs the automated leakage-repair loop on a program: detect,
// rewrite the flagged sites (if-conversion of secret-dependent branches,
// oblivious sweeps of secret-indexed loads), and verify each transform by
// differential execution plus a fresh detection on the hardened program.
func Repair(ctx context.Context, p Program, inputs [][]byte, gen InputGen, opts MitigateOptions) (*MitigateResult, error) {
	return mitigate.Repair(ctx, p, inputs, gen, opts)
}

// HardenProgram wraps a program so launches of the named kernels use the
// given (typically repaired) definitions instead, leaving host code and
// launch identities untouched.
func HardenProgram(p Program, kernels map[string]*Kernel) Program {
	return mitigate.Harden(p, kernels)
}

// Pragmas are `//owl:` directive comments carried by OwlC kernel source.
type Pragmas = owlc.Pragmas

// ParseKernelPragmas extracts `//owl:` directives (e.g. `//owl:mitigate`)
// from OwlC source; unknown directives are errors.
func ParseKernelPragmas(src string) (Pragmas, error) { return owlc.ParsePragmas(src) }

// EncodeTrace writes a recorded trace in its compact binary (gob) form,
// the format used for trace archives and replay.
func EncodeTrace(w io.Writer, t *ProgramTrace) error { return t.WriteGob(w) }

// DecodeTrace reads a binary (gob) trace written by EncodeTrace.
func DecodeTrace(r io.Reader) (*ProgramTrace, error) { return trace.ReadGob(r) }

// EncodeTraceJSON writes a recorded trace as indented JSON, the
// interchange format.
func EncodeTraceJSON(w io.Writer, t *ProgramTrace) error { return t.WriteJSON(w) }

// DecodeTraceJSON reads a JSON trace written by EncodeTraceJSON.
func DecodeTraceJSON(r io.Reader) (*ProgramTrace, error) { return trace.ReadJSON(r) }

// D1 builds a one-dimensional Dim3.
func D1(x int) Dim3 { return gpu.D1(x) }

// DefaultDeviceConfig returns the default simulated-GPU sizing.
func DefaultDeviceConfig() DeviceConfig { return gpu.DefaultConfig() }
