package core

import (
	"context"
	"math/rand"
	"testing"

	"owl/internal/evidence"
	"owl/internal/myers"
	"owl/internal/trace"
	"owl/internal/workloads/gpucrypto"
)

// aesEvidence records aes128 over 32 blocks, as in the evaluation suite,
// 40 times under one key into E_fix and 40 times under random keys into
// E_rnd, and returns them with the detector that recorded them.
func aesEvidence(tb testing.TB) (*Detector, *evidence.Diff, *evidence.Diff) {
	tb.Helper()
	opts := DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 40, 40
	d, err := NewDetector(opts)
	if err != nil {
		tb.Fatal(err)
	}
	p := gpucrypto.NewAES(gpucrypto.WithBlocks(32))
	gen, rng := gpucrypto.KeyGen(), rand.New(rand.NewSource(1))
	fixed, random := make([][]byte, opts.FixedRuns), make([][]byte, opts.RandomRuns)
	for i := range fixed {
		fixed[i] = []byte("0123456789abcdef")
	}
	for i := range random {
		random[i] = gen(rng)
	}
	evs := [2]*evidence.Diff{evidence.NewDiff(), evidence.NewDiff()}
	for k, inputs := range [2][][]byte{fixed, random} {
		err := d.RecordEach(context.Background(), p, inputs, func(_ int, t *trace.ProgramTrace) error {
			evs[k].AddRun(t)
			trace.Release(t)
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return d, evs[0], evs[1]
}

// BenchmarkLeakageTests measures the diff channel's analysis (§VII-C) on
// its own: every test of aes128's 40+40 evidence, built once. One op is
// one leakageTests call.
func BenchmarkLeakageTests(b *testing.B) {
	d, fix, rnd := aesEvidence(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := d.leakageTests(fix, rnd, newLeakSet(&Report{})); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRejectMemAllocs pins the data-flow tests' allocation: once the
// detector's scratch has grown, rejectMem over aes128's memory records
// (the histogram walk and the per-run Means and Spreads tests)
// allocates nothing.
func TestRejectMemAllocs(t *testing.T) {
	d, fix, rnd := aesEvidence(t)
	var pairs [][2]*evidence.MemFeature
	for _, op := range myers.Diff(fix.Stacks(), rnd.Stacks()) {
		if op.Kind != myers.Match {
			continue
		}
		fi, ri := fix.Invs[op.AIdx], rnd.Invs[op.BIdx]
		for b, blk := range fi.Sites {
			for j, visit := range blk.Mems {
				for m, ff := range visit {
					rf := ri.Sites.Mem(evidence.MemKey{Block: b, Visit: j, Mem: m})
					if ff != nil && rf != nil && ff.Runs() > 1 && rf.Runs() > 1 {
						pairs = append(pairs, [2]*evidence.MemFeature{ff, rf})
					}
				}
			}
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no memory records on both sides")
	}
	rejected := 0
	for _, pr := range pairs { // warm the scratch
		rej, _, _, err := d.rejectMem(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		if rej {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no memory record rejected: aes128's table lookups leak")
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, pr := range pairs {
			if _, _, _, err := d.rejectMem(pr[0], pr[1]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("rejectMem over %d records allocates %v times, want 0", len(pairs), allocs)
	}
}
