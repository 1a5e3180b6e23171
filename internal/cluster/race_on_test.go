//go:build race

package cluster

// raceEnabled mirrors the test binary's -race flag so e2e tests can
// build the owlworker binary with matching instrumentation: an
// uninstrumented worker outruns a race-slowed coordinator, finishing
// whole batches before the coordinator decodes the first result.
const raceEnabled = true
