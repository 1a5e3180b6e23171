package quantify

import (
	"math"
	"testing"

	"owl/internal/core"
)

func TestSeverityModel(t *testing.T) {
	cases := []struct {
		name string
		leak core.Leak
		want float64
	}{
		{"diff-only uses 1-p", core.Leak{P: 0.03}, 0.97},
		{"statistical uses confidence", core.Leak{P: 0.5, Confidence: 0.999}, 0.999},
		{"MI lifts toward 1", core.Leak{Confidence: 0.9, MI: 1}, 0.9 + 0.1*0.5},
		{"zero MI keeps base", core.Leak{Confidence: 0.9}, 0.9},
		{"perfect confidence stays 1", core.Leak{Confidence: 1, MI: 8}, 1},
	}
	for _, tc := range cases {
		if got := Severity(tc.leak); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Severity = %g, want %g", tc.name, got, tc.want)
		}
	}
	// Bounds: severity never leaves [0, 1].
	for _, l := range []core.Leak{{P: 2}, {P: -1}, {Confidence: 1, MI: 100}, {}} {
		if s := Severity(l); s < 0 || s > 1 {
			t.Errorf("Severity(%+v) = %g out of [0,1]", l, s)
		}
	}
	// Monotone in MI at fixed confidence.
	lo := Severity(core.Leak{Confidence: 0.8, MI: 0.1})
	hi := Severity(core.Leak{Confidence: 0.8, MI: 2})
	if hi <= lo {
		t.Errorf("MI lift not monotone: MI=2 scored %g <= MI=0.1 at %g", hi, lo)
	}
}
