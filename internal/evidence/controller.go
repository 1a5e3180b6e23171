// Sequential-testing controller: the early-stop state machine that
// watches the engine's leak signature between recording rounds and stops
// the job once the signature has been stable for enough consecutive
// checks. Runs saved at equal verdicts are the cheapest throughput
// multiplier the pipeline has — a fixed run budget spends the same
// whether the verdicts settled after a quarter of it or the last run.
package evidence

// Default early-stop policy knobs.
const (
	DefaultMinRuns      = 8
	DefaultCheckEvery   = 4
	DefaultStableChecks = 1
)

// StopPolicy configures sequential early stopping.
type StopPolicy struct {
	// Enabled turns the controller on; a disabled controller never stops,
	// so the job runs its full budget and reports stay reproducible when
	// fixed run counts are requested.
	Enabled bool
	// MinRuns is the minimum number of runs per regime before the first
	// check (<= 0 selects DefaultMinRuns). Below it verdicts are too noisy
	// to trust a stable signature.
	MinRuns int
	// CheckEvery is the number of runs per regime between checks (<= 0
	// selects DefaultCheckEvery) — the recording round size.
	CheckEvery int
	// StableChecks is how many consecutive checks must see an unchanged
	// leak signature before stopping (<= 0 selects DefaultStableChecks).
	StableChecks int
}

// WithDefaults fills unset policy knobs.
func (p StopPolicy) WithDefaults() StopPolicy {
	if p.MinRuns <= 0 {
		p.MinRuns = DefaultMinRuns
	}
	if p.CheckEvery <= 0 {
		p.CheckEvery = DefaultCheckEvery
	}
	if p.StableChecks <= 0 {
		p.StableChecks = DefaultStableChecks
	}
	return p
}

// Controller runs the early-stop state machine over an engine. The
// zero-state controller has seen no signature; the first check only
// records one.
type Controller struct {
	engine *Engine
	policy StopPolicy

	sig    string
	primed bool // sig holds a previous check's signature
	stable int  // consecutive checks with an unchanged signature
}

// NewController builds a controller over engine.
func NewController(engine *Engine, policy StopPolicy) *Controller {
	return &Controller{engine: engine, policy: policy.WithDefaults()}
}

// Policy returns the normalized policy.
func (c *Controller) Policy() StopPolicy { return c.policy }

// CheckTrajectory reports whether recording should stop, given the
// engine's trajectory as of this check: both regimes have reached
// MinRuns and the leak signature has been unchanged for StableChecks
// consecutive checks. Callers sample the trajectory once per round (every
// CheckEvery runs per regime), so live telemetry and the stop decision
// share one site evaluation.
func (c *Controller) CheckTrajectory(tr Trajectory) bool {
	if !c.policy.Enabled {
		return false
	}
	if c.engine.Runs(Fixed) < c.policy.MinRuns || c.engine.Runs(Random) < c.policy.MinRuns {
		return false
	}
	if c.primed && tr.Signature == c.sig {
		c.stable++
	} else {
		c.stable = 0
	}
	c.sig = tr.Signature
	c.primed = true
	return c.stable >= c.policy.StableChecks
}

// Stable returns how many consecutive checks have seen an unchanged leak
// signature — the telemetry channel's early-stop-state sample.
func (c *Controller) Stable() int { return c.stable }
