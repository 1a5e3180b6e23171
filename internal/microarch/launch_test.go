package microarch

import (
	"math/rand"
	"testing"

	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/owlc"
	"owl/internal/simt"
	"owl/internal/trace"
)

// collectInstrument feeds every warp's memory accesses of a launch into
// one collector. The launches below run a single thread block, so its
// warps record one after another.
type collectInstrument struct{ c *Collector }

func (r collectInstrument) BeginWarp(gpu.Dim3, int) simt.Hooks { return r }
func (r collectInstrument) EndLaunch()                         {}
func (r collectInstrument) OnBlockEnter(int, uint32)           {}
func (r collectInstrument) OnMemAccess(block, memIdx int, space isa.Space, _ bool, addrs []int64) {
	r.c.RecordMem(block, memIdx, space, addrs)
}

// newDevice returns a device of the given global-memory size.
func newDevice(t *testing.T, words int64) *gpu.Device {
	t.Helper()
	d, err := gpu.NewDevice(gpu.Config{GlobalWords: words, ConstWords: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// coalesceSites launches k on d as one thread block and returns the
// launch's coalesce sites.
func coalesceSites(t *testing.T, d *gpu.Device, k *isa.Kernel, block int, params []int64) []trace.CostSite {
	t.Helper()
	c := NewCollector(k)
	if _, err := d.Launch(k, gpu.D1(1), gpu.D1(block), params, collectInstrument{c}); err != nil {
		t.Fatal(err)
	}
	var out []trace.CostSite
	for _, s := range c.Sites(nil) {
		if s.Metric == trace.CostCoalesce {
			out = append(out, s)
		}
	}
	return out
}

// transactions sums the transactions of a launch's coalesce sites — the
// quantity proportional to the memory-latency component of kernel time,
// i.e. what a timing attacker observes per execution.
func transactions(sites []trace.CostSite) int64 {
	var n int64
	for _, s := range sites {
		n += s.Total
	}
	return n
}

func TestProfileCoalescedVsScattered(t *testing.T) {
	// out[tid] = in[tid] is fully coalesced; out[tid*16] is fully
	// scattered: the coalesce sites must show the 16x transaction
	// blow-up.
	build := func(name string, scatter bool) *isa.Kernel {
		b := kbuild.New(name, 2)
		tid := b.Tid()
		addr := tid
		if scatter {
			addr = b.Mul(tid, b.ConstR(16))
		}
		v := b.Load(isa.SpaceGlobal, b.Add(b.Param(0), addr), 0)
		b.Store(isa.SpaceGlobal, b.Add(b.Param(1), addr), 0, v)
		b.Ret()
		return b.MustBuild()
	}
	params := []int64{0, 4096}
	coalesced := coalesceSites(t, newDevice(t, 1<<14), build("k", false), 32, params)
	scattered := coalesceSites(t, newDevice(t, 1<<14), build("k", true), 32, params)
	if transactions(coalesced) >= transactions(scattered) {
		t.Errorf("coalesced %d transactions >= scattered %d", transactions(coalesced), transactions(scattered))
	}
	if got := transactions(scattered) / transactions(coalesced); got < 8 {
		t.Errorf("scatter blow-up only %dx, want >= 8x", got)
	}
	// 32 lanes of consecutive 8-byte words span exactly two 128-byte
	// lines: the load's site averages 2 transactions per access.
	if len(coalesced) == 0 || coalesced[0].Block != 0 || coalesced[0].Instr != 0 {
		t.Fatalf("coalesced sites %+v: want the load at block 0, memory instruction 0 first", coalesced)
	}
	if s := coalesced[0]; s.Events != 1 || s.Total != 2 {
		t.Errorf("coalesced load site = %+v, want 1 access of 2 transactions", s)
	}
}

// TestTimingChannelTracksSecret reproduces the coalescing timing channel
// of the paper's motivating attack [6]: when a warp's table lookups are
// indexed purely by the secret, the number of transactions — and hence the
// access latency — depends on how the secret scatters over cache lines.
func TestTimingChannelTracksSecret(t *testing.T) {
	k, err := owlc.Compile(`
		kernel look(key, sbox, out) {
			out[tid & 63] = sbox[key[tid & 63] & 255];
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	total := func(key []int64) int64 {
		d := newDevice(t, 1<<12)
		keyRec, err := d.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		sboxRec, err := d.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		outRec, err := d.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteGlobal(keyRec.Base, key); err != nil {
			t.Fatal(err)
		}
		params := []int64{keyRec.Base, sboxRec.Base, outRec.Base}
		return transactions(coalesceSites(t, d, k, 64, params))
	}
	concentrated := make([]int64, 64) // every lane hits s-box line 0
	spread := make([]int64, 64)       // lanes scatter over all 16 lines
	for i := range spread {
		spread[i] = int64(i * 4)
	}
	a := total(concentrated)
	b := total(spread)
	if a >= b {
		t.Errorf("concentrated key %d transactions >= spread key %d — timing channel missing", a, b)
	}
	t.Logf("transactions: concentrated=%d spread=%d", a, b)
}
