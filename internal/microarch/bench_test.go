package microarch

import (
	"math/rand"
	"testing"

	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/simt"
	"owl/internal/workloads/gpucrypto"
)

// costEvent is one recorded cost-channel callback: a memory access when
// addrs is non-nil, a register write otherwise.
type costEvent struct {
	block, idx int
	space      isa.Space
	addrs      []int64
	vals       [simt.WarpWidth]int64
	mask       uint32
}

// eventLog records the cost-channel callbacks of every launch it
// observes, in execution order, for replay into a collector.
type eventLog struct {
	kernel *isa.Kernel
	events []costEvent
}

func (l *eventLog) OnAlloc(gpu.AllocRecord, string) {}
func (l *eventLog) OnLaunch(info cuda.LaunchInfo) gpu.Instrument {
	l.kernel = info.Kernel
	return l
}
func (l *eventLog) BeginWarp(gpu.Dim3, int) simt.Hooks { return l }
func (l *eventLog) EndLaunch()                         {}
func (l *eventLog) OnBlockEnter(int, uint32)           {}
func (l *eventLog) OnMemAccess(block, memIdx int, space isa.Space, _ bool, addrs []int64) {
	l.events = append(l.events, costEvent{block: block, idx: memIdx, space: space, addrs: append([]int64{}, addrs...)})
}
func (l *eventLog) OnRegWrite(block, instr int, vals *[simt.WarpWidth]int64, mask uint32) {
	l.events = append(l.events, costEvent{block: block, idx: instr, vals: *vals, mask: mask})
}

// BenchmarkCostCollector replays the cost-channel events of one aes128
// launch (its register writes and memory accesses) into a fresh
// collector laid out for the kernel and renders its sites: the tracer's
// per-launch cost work without the interpreter around it. It reports the
// share of the register writes that cover a full warp, the shape
// PowerProxy's straight loop serves.
func BenchmarkCostCollector(b *testing.B) {
	log := &eventLog{}
	ctx, err := cuda.NewContext(gpu.DefaultConfig(), rand.New(rand.NewSource(1)), log)
	if err != nil {
		b.Fatal(err)
	}
	if err := gpucrypto.NewAES().Run(ctx, []byte("0123456789abcdef")); err != nil {
		b.Fatal(err)
	}
	ctx.Close()
	b.ReportAllocs()
	var sites int
	for b.Loop() {
		c := NewCollector(log.kernel)
		for i := range log.events {
			e := &log.events[i]
			if e.addrs != nil {
				c.RecordMem(e.block, e.idx, e.space, e.addrs)
			} else {
				c.RecordRegWrite(e.block, e.idx, &e.vals, e.mask)
			}
		}
		sites = len(c.Sites(nil))
	}
	var writes, full int
	for _, e := range log.events {
		if e.addrs == nil {
			writes++
			if e.mask == ^uint32(0) {
				full++
			}
		}
	}
	b.ReportMetric(float64(len(log.events)), "events")
	b.ReportMetric(float64(sites), "sites")
	b.ReportMetric(float64(full)/float64(writes), "full-warp-share")
}

// BenchmarkPowerProxy times one register write's power proxy on a full
// warp, which takes the straight loop, and on a half and a single-lane
// mask, which walk their set bits.
func BenchmarkPowerProxy(b *testing.B) {
	var vals [simt.WarpWidth]int64
	r := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = r.Int63()
	}
	for _, tc := range []struct {
		name string
		mask uint32
	}{{"full", ^uint32(0)}, {"half", 0x0000FFFF}, {"lane", 1 << 31}} {
		b.Run(tc.name, func(b *testing.B) {
			var s int64
			for b.Loop() {
				s += PowerProxy(&vals, tc.mask)
			}
			if s < 0 {
				b.Fatal("negative popcount sum")
			}
		})
	}
}
