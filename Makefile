# Owl — reproduction of "Owl: Differential-based Side-Channel Leakage
# Detection for CUDA Applications" (DSN 2024). Stdlib-only Go; all targets
# run offline.

GO ?= go

.PHONY: all build test test-race perf-test bench tables paper fuzz fuzz-simt fuzz-mitigate fuzz-fold examples cover clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/gpu/ ./internal/tracer/ ./internal/simt/ ./internal/core/ ./internal/service/ ./internal/obs/ ./internal/mitigate/ ./internal/attack/ ./internal/cluster/ ./internal/evidence/ ./internal/stats/ ./internal/microarch/ ./internal/adcfg/ ./internal/trace/ ./internal/quantify/ ./internal/workloads/...

# cmd/owlperf is its own module, so `go test ./...` at the root skips it;
# it compiles against the service and core APIs and must keep building.
perf-test:
	cd cmd/owlperf && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
tables:
	$(GO) run ./cmd/owlbench -all

# The paper's 100+100 execution configuration.
paper:
	$(GO) run ./cmd/owlbench -all -paper

fuzz:
	$(GO) test -fuzz=FuzzCompile -fuzztime=30s ./internal/owlc/

# Differential fuzzing of the warp-vectorized SIMT interpreter against the
# per-lane reference implementation (random kernels; traces, memory,
# stats, and errors must match).
fuzz-simt:
	$(GO) test -fuzz=FuzzInterpEquivalence -fuzztime=60s ./internal/simt/

# Fuzz the repair pass: random OwlC kernels through the mitigation loop;
# any divergence between original and hardened programs (or a leak the
# applied transforms should have removed) is a transform bug.
fuzz-mitigate:
	$(GO) test -fuzz=FuzzMitigateEquivalence -fuzztime=60s ./internal/mitigate/

# Differential fuzzing of the tracer's warp folder against the reference
# folder (a map operation per block entry, a sort per access, edges
# stored as they are taken): random block walks and lane vectors over
# interleaved, reused and released folders must encode the same A-DCFG,
# and the edges the folded graph derives from its pairs must equal the
# reference's stored edges. Each script folds a second time into a graph
# reset from the previous script's, the way the tracer reuses a released
# trace's graphs, and must encode the same bytes.
fuzz-fold:
	$(GO) test -run=NONE -fuzz=FuzzWarpFold -fuzztime=60s ./internal/adcfg/

examples:
	@for e in quickstart aes rsa torch scalability attack owlc nvjpeg; do \
		echo "=== examples/$$e ==="; $(GO) run ./examples/$$e; echo; done

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
