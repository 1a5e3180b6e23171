package owl_test

// BenchmarkWarpInterp measures raw SIMT-interpreter throughput on the
// Table IV kernels (aes128, rsa, jpeg encode): each iteration is one full
// untraced program execution on a fresh device. Detection repeats traced
// executions instead, whose tracer hooks and A-DCFG folding cost several
// times the interpretation; cmd/owlperf measures that path, end to end
// and per layer. Reported metrics:
//
//	simulated-MIPS — simulated instructions per wall-clock second
//	allocs/op      — allocations per execution (go test -benchmem)
//
// Results are also written to BENCH_simt.json for the CI bench artifact,
// alongside BENCH_streaming.json.

import (
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"testing"

	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/workloads/gpucrypto"
	"owl/internal/workloads/jpeg"
)

var (
	warpInterpMu      sync.Mutex
	warpInterpResults = map[string]map[string]float64{}
)

func BenchmarkWarpInterp(b *testing.B) {
	cases := []struct {
		name  string
		prog  func() (cuda.Program, error)
		input []byte
	}{
		{
			name:  "aes128",
			prog:  func() (cuda.Program, error) { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)), nil },
			input: []byte("0123456789abcdef"),
		},
		{
			name:  "rsa",
			prog:  func() (cuda.Program, error) { return gpucrypto.NewRSA(gpucrypto.WithMessages(16)), nil },
			input: []byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00},
		},
		{
			name: "jpeg-encode",
			prog: func() (cuda.Program, error) {
				enc, err := jpeg.NewEncoder(16, 16)
				return enc, err
			},
			input: jpeg.SynthImage(16, 16, 1),
		},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			p, err := tc.prog()
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			var instrs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, err := cuda.NewContext(gpu.DefaultConfig(), rng, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Run(ctx, tc.input); err != nil {
					b.Fatal(err)
				}
				instrs += ctx.Stats().Instructions
				ctx.Close()
			}
			b.StopTimer()
			mips := float64(instrs) / b.Elapsed().Seconds() / 1e6
			b.ReportMetric(mips, "simulated-MIPS")
			warpInterpMu.Lock()
			warpInterpResults[tc.name] = map[string]float64{
				"simulated_mips":    mips,
				"instrs_per_exec":   float64(instrs) / float64(b.N),
				"ns_per_exec":       float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				"executions_tested": float64(b.N),
			}
			warpInterpMu.Unlock()
		})
	}
	b.Cleanup(func() {
		warpInterpMu.Lock()
		defer warpInterpMu.Unlock()
		// Merge into any existing file so a filtered run (e.g.
		// -bench WarpInterp/aes128) refreshes only the workloads it
		// actually measured instead of discarding the rest.
		merged := map[string]map[string]float64{}
		if prev, err := os.ReadFile("BENCH_simt.json"); err == nil {
			_ = json.Unmarshal(prev, &merged)
		}
		for name, metrics := range warpInterpResults {
			merged[name] = metrics
		}
		out, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			b.Error(err)
			return
		}
		if err := os.WriteFile("BENCH_simt.json", out, 0o644); err != nil {
			b.Error(err)
		}
	})
}
