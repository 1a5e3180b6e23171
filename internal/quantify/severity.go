// Severity scoring: folding the statistical evidence channel's verdicts
// (Welch-t confidence, mutual information) together with the diff
// channel's KS significance into one [0,1] grade per screened leak site,
// so reports from either evidence mode rank on a single scale.
package quantify

import "owl/internal/core"

// Severity grades one leak in [0, 1]. The base grade is the statistical
// channel's confidence (1-p of the Welch t under the normal
// approximation) when that channel scored the site, and the diff
// channel's 1-p otherwise — the two channels already agree on "smaller p
// is worse", so the scales compose. Mutual information then lifts the
// base toward 1 by MI/(1+MI): a site whose address trace carries a full
// bit of secret information outranks an equally significant site that
// carries almost none, and a site with no MI estimate keeps its base
// grade. The lift is monotone and bounded, so severity never leaves
// [0, 1] and never demotes a site for lacking an MI estimate.
func Severity(l core.Leak) float64 {
	base := l.Confidence
	if base == 0 {
		base = 1 - l.P
	}
	if base < 0 {
		base = 0
	}
	if base > 1 {
		base = 1
	}
	if l.MI > 0 {
		base += (1 - base) * (l.MI / (1 + l.MI))
	}
	return base
}
