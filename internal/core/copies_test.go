package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"owl/internal/cuda"
	"owl/internal/workloads/gpucrypto"
	"owl/internal/workloads/shmem"
)

// TestFixedCopiesMatchMergeOnArrival analyzes each class of a program
// twice on detectors with the same seed: once as a detection does, where
// the fixed runs equal to the representative's trace merge as counted
// copies of it, and once with the class's trace taken away, so that
// every run merges on arrival. The reports and the per-round evidence
// samples must be identical. The budgets are uneven in both directions,
// so some rounds record fixed runs only: their counted copies must merge
// at the end of the chunk, before the round's check reads the engine.
func TestFixedCopiesMatchMergeOnArrival(t *testing.T) {
	aes := gpucrypto.NewAES(gpucrypto.WithBlocks(4))
	aesInputs := [][]byte{[]byte("0123456789abcdef"), []byte("fedcba9876543210")}
	cost := EvidenceConfig{Mode: EvidenceBoth, Channels: []string{ChannelADCFG, ChannelCost}}
	for _, tc := range []struct {
		name          string
		p             cuda.Program
		inputs        [][]byte
		gen           cuda.InputGen
		ev            EvidenceConfig
		fixed, random int
		telemetry     bool
	}{
		{"aes128 diff", aes, aesInputs, gpucrypto.KeyGen(), EvidenceConfig{}, 12, 8, false},
		{"aes128 both+cost rounds", aes, aesInputs, gpucrypto.KeyGen(), cost, 14, 6, true},
		{"aes128 tvla rounds", aes, aesInputs, gpucrypto.KeyGen(), EvidenceConfig{Mode: EvidenceTVLA}, 6, 14, true},
		{"aes128 both early stop", aes, aesInputs, gpucrypto.KeyGen(), EvidenceConfig{Mode: EvidenceBoth, EarlyStop: EarlyStopPolicy{Enabled: true}}, 40, 24, false},
		{"shmem-leaky both+cost rounds", shmem.NewLeaky(), [][]byte{{0}, {1}}, shmem.Gen(), cost, 22, 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			analyze := func(keepTrace bool) (report string, samples []EvidenceSample, repeats int) {
				opts := DefaultOptions()
				opts.FixedRuns, opts.RandomRuns, opts.Evidence = tc.fixed, tc.random, tc.ev
				if tc.telemetry {
					opts.OnEvidence = func(s EvidenceSample) { samples = append(samples, s) }
				}
				d, err := NewDetector(opts)
				if err != nil {
					t.Fatal(err)
				}
				classes, err := d.Classify(tc.p, tc.inputs)
				if err != nil {
					t.Fatal(err)
				}
				r := &Report{Program: tc.p.Name()}
				leaks := newLeakSet(r)
				for _, cls := range classes {
					if !keepTrace {
						cls.Trace = nil
					}
					n, err := d.analyzeClass(context.Background(), tc.p, cls, tc.gen, leaks)
					if err != nil {
						t.Fatal(err)
					}
					repeats += n
				}
				r.Stats = PhaseStats{}
				b, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				return string(b), samples, repeats
			}
			got, gotSamples, repeats := analyze(true)
			want, wantSamples, none := analyze(false)
			if repeats == 0 || none != 0 {
				t.Fatalf("%d fixed runs merged as copies, %d without the class trace", repeats, none)
			}
			if got != want {
				t.Errorf("report with counted copies differs from merging each run on arrival:\n got  %s\n want %s", got, want)
			}
			if g, w := fmt.Sprintf("%+v", gotSamples), fmt.Sprintf("%+v", wantSamples); g != w {
				t.Errorf("evidence samples with counted copies differ:\n got  %s\n want %s", g, w)
			}
			if tc.telemetry && len(gotSamples) == 0 {
				t.Error("no evidence samples")
			}
		})
	}
}
