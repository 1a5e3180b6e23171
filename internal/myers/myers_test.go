package myers

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// apply replays the script, checking indices and reconstructing b from a.
func apply(t *testing.T, a, b []string, ops []Op) {
	t.Helper()
	var out []string
	ai, bi := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case Match:
			if op.AIdx != ai || op.BIdx != bi {
				t.Fatalf("match at (%d,%d), cursor (%d,%d)", op.AIdx, op.BIdx, ai, bi)
			}
			if a[ai] != b[bi] {
				t.Fatalf("match pairs %q with %q", a[ai], b[bi])
			}
			out = append(out, a[ai])
			ai++
			bi++
		case Delete:
			if op.AIdx != ai {
				t.Fatalf("delete at %d, cursor %d", op.AIdx, ai)
			}
			ai++
		case Insert:
			if op.BIdx != bi {
				t.Fatalf("insert at %d, cursor %d", op.BIdx, bi)
			}
			out = append(out, b[bi])
			bi++
		}
	}
	if ai != len(a) || bi != len(b) {
		t.Fatalf("script consumed (%d,%d) of (%d,%d)", ai, bi, len(a), len(b))
	}
	if len(out) != len(b) {
		t.Fatalf("reconstructed %d items, want %d", len(out), len(b))
	}
	for i := range out {
		if out[i] != b[i] {
			t.Fatalf("reconstruction differs at %d: %q vs %q", i, out[i], b[i])
		}
	}
}

func TestDiffBasic(t *testing.T) {
	tests := []struct {
		name     string
		a, b     []string
		wantDist int
	}{
		{name: "both empty", wantDist: 0},
		{name: "identical", a: []string{"x", "y"}, b: []string{"x", "y"}, wantDist: 0},
		{name: "insert all", b: []string{"x", "y"}, wantDist: 2},
		{name: "delete all", a: []string{"x", "y"}, wantDist: 2},
		{name: "replace", a: []string{"x"}, b: []string{"y"}, wantDist: 2},
		{name: "classic abcabba", a: strsplit("abcabba"), b: strsplit("cbabac"), wantDist: 5},
		{name: "insert middle", a: strsplit("ac"), b: strsplit("abc"), wantDist: 1},
		{name: "delete middle", a: strsplit("abc"), b: strsplit("ac"), wantDist: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ops := Diff(tt.a, tt.b)
			apply(t, tt.a, tt.b, ops)
			if d := edits(ops); d != tt.wantDist {
				t.Errorf("distance = %d, want %d", d, tt.wantDist)
			}
		})
	}
}

// edits counts the script's non-Match operations: its edit distance.
func edits(ops []Op) int {
	d := 0
	for _, op := range ops {
		if op.Kind != Match {
			d++
		}
	}
	return d
}

func strsplit(s string) []string {
	out := make([]string, len(s))
	for i := range s {
		out[i] = s[i : i+1]
	}
	return out
}

func TestDiffQuickValidScripts(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		alphabet := []string{"k1", "k2", "k3"}
		a := make([]string, ra.Intn(12))
		for i := range a {
			a[i] = alphabet[ra.Intn(len(alphabet))]
		}
		b := make([]string, rb.Intn(12))
		for i := range b {
			b[i] = alphabet[rb.Intn(len(alphabet))]
		}
		ops := Diff(a, b)
		// Validate in a sub-test-free way: recompute reconstruction.
		var out []string
		ai, bi := 0, 0
		for _, op := range ops {
			switch op.Kind {
			case Match:
				if ai >= len(a) || bi >= len(b) || a[ai] != b[bi] {
					return false
				}
				out = append(out, a[ai])
				ai++
				bi++
			case Delete:
				if ai >= len(a) {
					return false
				}
				ai++
			case Insert:
				if bi >= len(b) {
					return false
				}
				out = append(out, b[bi])
				bi++
			}
		}
		if ai != len(a) || bi != len(b) || len(out) != len(b) {
			return false
		}
		for i := range out {
			if out[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiffMinimality(t *testing.T) {
	// The script must never exceed len(a)+len(b), and for sequences with a
	// common prefix/suffix it must keep matches.
	a := []string{"p", "q", "x", "r"}
	b := []string{"p", "q", "y", "r"}
	ops := Diff(a, b)
	if d := edits(ops); d != 2 {
		t.Errorf("distance = %d, want 2", d)
	}
	matches := 0
	for _, op := range ops {
		if op.Kind == Match {
			matches++
		}
	}
	if matches != 3 {
		t.Errorf("matches = %d, want 3", matches)
	}
}
