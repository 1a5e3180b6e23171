// Evidence-channel configuration: the detector carries two evidence
// channels — the paper's set-difference over merged A-DCFGs ("diff") and
// the streaming statistical channel of internal/evidence ("tvla") — and
// EvidenceConfig selects which run and how. The zero value selects the
// diff channel with no early stopping, which keeps the default pipeline
// (and its golden reports) byte-identical.
package core

import (
	"errors"
	"fmt"

	"owl/internal/evidence"
)

// EvidenceMode selects the evidence channel(s) of the analysis phase.
type EvidenceMode string

const (
	// EvidenceDiff is the paper's set-difference channel: KS tests over
	// merged fixed-vs-random A-DCFG evidence. The default.
	EvidenceDiff EvidenceMode = "diff"
	// EvidenceTVLA is the statistical channel alone: streaming Welford
	// accumulators feeding Welch's t (TVLA |t| > threshold) and per-site
	// mutual information, at O(sites) memory.
	EvidenceTVLA EvidenceMode = "tvla"
	// EvidenceBoth runs both channels over the same recorded runs: diff
	// leaks annotated with the statistical channel's t/MI/confidence, plus
	// statistical verdicts with no diff counterpart.
	EvidenceBoth EvidenceMode = "both"
)

// EarlyStopPolicy configures sequential early stopping of the recording
// phase: between recording rounds the statistical channel's leak
// signature is checked, and once it has been stable for StableChecks
// consecutive checks the remaining run budget is cancelled. Requires
// EvidenceTVLA or EvidenceBoth (the signature comes from the statistical
// channel). FixedRuns/RandomRuns remain the ceiling, so reports stay
// reproducible when a fixed budget is requested.
type EarlyStopPolicy struct {
	Enabled bool `json:"enabled,omitempty"`
	// MinRuns is the per-regime run count before the first check
	// (0 selects the default, currently 8).
	MinRuns int `json:"min_runs,omitempty"`
	// CheckEvery is the recording-round size in runs per regime
	// (0 selects the default, currently 4).
	CheckEvery int `json:"check_every,omitempty"`
	// StableChecks is how many consecutive checks must agree before
	// stopping (0 selects the default, currently 1).
	StableChecks int `json:"stable_checks,omitempty"`
}

// Observable channel names for EvidenceConfig.Channels.
const (
	// ChannelADCFG is the address-annotated dynamic control-flow graph —
	// the paper's observable, always collected.
	ChannelADCFG = "adcfg"
	// ChannelCost is the microarchitectural cost channel: per-instruction
	// bank-conflict serialization, coalescing transaction counts, and a
	// Hamming-weight power proxy, tested as TVLA sites beside the A-DCFG
	// sites. Requires the statistical channel (mode tvla or both).
	ChannelCost = "cost"
)

// EvidenceConfig is the structured evidence configuration of Options.
// The zero value means: diff channel, no statistics, no early stopping.
type EvidenceConfig struct {
	// Mode selects the channel(s); empty means EvidenceDiff.
	Mode EvidenceMode `json:"mode,omitempty"`
	// Channels selects the observables collected per run. Empty means
	// A-DCFG only — the byte-identical default. ChannelADCFG is always
	// implied (the A-DCFG is the trace itself); listing ChannelCost
	// additionally collects the microarchitectural cost observables and
	// tests them as statistical sites.
	Channels []string `json:"channels,omitempty"`
	// TVLAThreshold is the |t| rejection threshold of the statistical
	// channel (0 selects the TVLA-customary 4.5).
	TVLAThreshold float64 `json:"tvla_threshold,omitempty"`
	// MIBins caps the per-site mutual-information histograms (0 selects
	// the default, currently 64).
	MIBins int `json:"mi_bins,omitempty"`
	// EarlyStop configures sequential early stopping.
	EarlyStop EarlyStopPolicy `json:"early_stop,omitempty"`
}

// Typed option-validation errors, exposed so callers can distinguish a
// misconfigured request from an execution failure.
var (
	// ErrInvalidRunCount reports a zero, negative, or sub-minimum
	// FixedRuns/RandomRuns. Run budgets are meaningful — early stopping
	// treats them as the recording ceiling — so silently substituting a
	// default would hide caller bugs.
	ErrInvalidRunCount = errors.New("core: run count must be at least 2 per regime")
	// ErrInvalidEvidenceConfig reports an unusable Options.Evidence.
	ErrInvalidEvidenceConfig = errors.New("core: invalid evidence config")
)

// normalized returns the config with defaults filled, or an error when it
// is unusable. It is the one place evidence settings are defaulted; the
// engine and the round loop take them as given.
func (c EvidenceConfig) normalized() (EvidenceConfig, error) {
	switch c.Mode {
	case "":
		c.Mode = EvidenceDiff
	case EvidenceDiff, EvidenceTVLA, EvidenceBoth:
	default:
		return c, fmt.Errorf("%w: unknown mode %q (want %q, %q, or %q)",
			ErrInvalidEvidenceConfig, c.Mode, EvidenceDiff, EvidenceTVLA, EvidenceBoth)
	}
	if c.TVLAThreshold < 0 {
		return c, fmt.Errorf("%w: negative TVLA threshold %v", ErrInvalidEvidenceConfig, c.TVLAThreshold)
	}
	if c.TVLAThreshold == 0 {
		c.TVLAThreshold = evidence.DefaultTThreshold
	}
	if c.MIBins < 0 {
		return c, fmt.Errorf("%w: negative MI bins %d", ErrInvalidEvidenceConfig, c.MIBins)
	}
	if c.MIBins == 0 {
		c.MIBins = evidence.DefaultMIBins
	}
	if c.EarlyStop.MinRuns < 0 || c.EarlyStop.CheckEvery < 0 || c.EarlyStop.StableChecks < 0 {
		return c, fmt.Errorf("%w: negative early-stop knob (min_runs=%d, check_every=%d, stable_checks=%d)",
			ErrInvalidEvidenceConfig, c.EarlyStop.MinRuns, c.EarlyStop.CheckEvery, c.EarlyStop.StableChecks)
	}
	for _, ch := range c.Channels {
		switch ch {
		case ChannelADCFG, ChannelCost:
		default:
			return c, fmt.Errorf("%w: unknown channel %q (want %q or %q)",
				ErrInvalidEvidenceConfig, ch, ChannelADCFG, ChannelCost)
		}
	}
	if c.CostEnabled() && !c.statEnabled() {
		return c, fmt.Errorf("%w: channel %q requires evidence mode %q or %q (cost sites are statistical verdicts)",
			ErrInvalidEvidenceConfig, ChannelCost, EvidenceTVLA, EvidenceBoth)
	}
	if c.EarlyStop.Enabled && c.Mode == EvidenceDiff {
		return c, fmt.Errorf("%w: early stopping requires mode %q or %q (the stop signal is the statistical channel's leak signature)",
			ErrInvalidEvidenceConfig, EvidenceTVLA, EvidenceBoth)
	}
	// The knobs are filled with early stop off too: telemetry rounds are
	// CheckEvery runs per regime either way.
	if c.EarlyStop.MinRuns == 0 {
		c.EarlyStop.MinRuns = 8
	}
	if c.EarlyStop.CheckEvery == 0 {
		c.EarlyStop.CheckEvery = 4
	}
	if c.EarlyStop.StableChecks == 0 {
		c.EarlyStop.StableChecks = 1
	}
	return c, nil
}

// CostEnabled reports whether the microarchitectural cost channel is
// collected and tested. Exported because the recording surfaces outside
// core (the cluster worker, the service cache key) need the same answer.
func (c EvidenceConfig) CostEnabled() bool {
	for _, ch := range c.Channels {
		if ch == ChannelCost {
			return true
		}
	}
	return false
}

// statEnabled reports whether the statistical channel runs.
func (c EvidenceConfig) statEnabled() bool {
	return c.Mode == EvidenceTVLA || c.Mode == EvidenceBoth
}

// diffEnabled reports whether the set-difference channel runs.
func (c EvidenceConfig) diffEnabled() bool {
	return c.Mode == EvidenceDiff || c.Mode == EvidenceBoth || c.Mode == ""
}
