// Package cluster distributes trace recording across a fleet of worker
// processes, turning owld into a control plane: a Worker is a thin HTTP
// agent that records batches of instrumented executions on the existing
// vectorized pipeline and streams gob-encoded traces back, and a Fleet
// implements the sink-based core.Runner contract coordinator-side —
// work-stealing dispatch of run indices over registered workers,
// backpressure-aware batch sizing off /readyz, retry and rebalance of
// in-flight batches when a worker dies mid-job, and strictly in-order
// trace delivery into the pipeline's merge window so cluster reports stay
// byte-identical to single-process runs.
package cluster

import (
	"fmt"

	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/obs"
)

// ProtocolVersion is the record-batch wire protocol version. A worker
// rejects requests carrying any other version — mixed-version fleets must
// fail loudly rather than silently diverge, because report byte-identity
// depends on every node running the same recording code.
//
// v2 added distributed tracing: BatchRequest.Trace and the
// WireResult.Spans / WireResult.Counters shipment fields.
//
// v3 added the microarchitectural cost channel: BatchRequest.Cost selects
// cost-observable collection, which changes the recorded traces (cost
// sites join the canonical encoding), so a v2 worker must not serve a v3
// coordinator.
//
// v4 changed the gob shape of shipped traces: an address histogram
// (adcfg.MemHist) travels as strictly ascending cells instead of a map.
//
// v5 dropped the stored edges from shipped traces: an adcfg.Graph
// travels with its node pairs only, and the receiver derives the edges
// from them. A v4 peer would decode a v5 trace with no edges and hash it
// differently.
const ProtocolVersion = 5

// protocolHeader is the HTTP header a worker stamps on record-stream
// responses so the coordinator can verify the version before decoding.
const protocolHeader = "X-Owl-Protocol"

// BatchRequest is one record-batch submission: a kernel workload resolved
// by registry name, the simulated-device sizing, and the run requests
// (index + secret input + per-run seed) drawn by the coordinator's
// pipeline. Seeds travel with the batch so any worker reproduces the
// exact trace the coordinator's own pool would have recorded.
type BatchRequest struct {
	Protocol int           `json:"protocol"`
	Program  string        `json:"program"`
	Rebase   bool          `json:"rebase"`
	Cost     bool          `json:"cost,omitempty"`
	Device   gpu.Config    `json:"device"`
	Reqs     []WireRequest `json:"reqs"`
	// Trace, when non-nil, is the coordinator-side dispatch span the
	// batch runs under: the worker records its per-run spans into a
	// private per-batch recorder rooted at this context and ships them
	// back on each WireResult. Nil means tracing is off and the worker
	// does no observability work at all.
	Trace *obs.SpanContext `json:"trace,omitempty"`
}

// WireRequest is one run request on the wire. Index is the request's
// position in the coordinator's batch; Seed derives the run's private RNG.
type WireRequest struct {
	Index int    `json:"index"`
	Input []byte `json:"input"`
	Seed  int64  `json:"seed"`
}

// WireResult is one streamed record-batch result: the request index plus
// either the trace in its EncodeTrace (gob) form or a recording error.
// Kernels carries device-kernel definitions first launched in this batch,
// so the coordinator's detector can annotate leak reports (block labels,
// instruction comments) exactly as local recording would; workers send
// each kernel at most once per batch. Results stream back as a single gob
// sequence, one WireResult per completed run, in completion order.
// Spans and Counters carry the worker's completed span records and
// counter samples drained from its per-batch recorder at send time
// (empty unless the batch carried a trace context). Offsets are
// relative to the worker's batch-receipt epoch; the coordinator
// normalizes them onto its own clock when merging (obs.MergeRemote).
type WireResult struct {
	Index    int
	Err      string
	Trace    []byte
	Kernels  []*isa.Kernel
	Spans    []obs.SpanRecord
	Counters []obs.CounterRecord
}

// Readiness is the JSON body of a node's /readyz: the bare ready bit plus
// the queue depth and worker-slot occupancy the coordinator's
// backpressure-aware batch sizing keys off. Both owlworker agents and the
// owld control plane serve this shape.
type Readiness struct {
	Status      string `json:"status"`
	QueueDepth  int    `json:"queue_depth"`
	ActiveSlots int    `json:"active_slots"`
	IdleSlots   int    `json:"idle_slots"`
	Slots       int    `json:"slots"`
}

// Ready reports whether the node accepts work.
func (r Readiness) Ready() bool { return r.Status == "ready" }

// versionError renders the mismatch a worker returns for a request from a
// different protocol generation.
func versionError(got int) error {
	return fmt.Errorf("cluster: protocol version %d not supported (worker speaks %d); upgrade every worker and the coordinator together", got, ProtocolVersion)
}
