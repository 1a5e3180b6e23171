package microarch

import (
	"math/rand"
	"testing"

	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/owlc"
)

func TestProfileCoalescedVsScattered(t *testing.T) {
	// out[tid] = in[tid] is fully coalesced; out[tid*16] is fully
	// scattered: the profile must show the 16x transaction blow-up.
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
	run := func(scatter bool) *Profile {
		d, err := gpu.NewDevice(gpu.Config{GlobalWords: 1 << 14, ConstWords: 1}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		if _, err := d.Launch(build("k", scatter), gpu.D1(1), gpu.D1(32), []int64{0, 4096}, rec); err != nil {
			t.Fatal(err)
		}
		return rec.Profile
	}
	coalesced := run(false)
	scattered := run(true)
	if coalesced.Total() >= scattered.Total() {
		t.Errorf("coalesced %d transactions >= scattered %d", coalesced.Total(), scattered.Total())
	}
	if got := scattered.Total() / coalesced.Total(); got < 8 {
		t.Errorf("scatter blow-up only %dx, want >= 8x", got)
	}
	// 32 lanes of consecutive 8-byte words span exactly two 128-byte
	// lines.
	k := Key{Block: 0, MemIdx: 0}
	if m := coalesced.Mean(k); m != 2 {
		t.Errorf("coalesced mean = %v, want 2", m)
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
		d, err := gpu.NewDevice(gpu.Config{GlobalWords: 1 << 12, ConstWords: 1}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
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
		rec := NewRecorder()
		if _, err := d.Launch(k, gpu.D1(1), gpu.D1(64),
			[]int64{keyRec.Base, sboxRec.Base, outRec.Base}, rec); err != nil {
			t.Fatal(err)
		}
		return rec.Profile.Total()
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

func TestMeanEmpty(t *testing.T) {
	p := NewProfile()
	if p.Mean(Key{}) != 0 || p.Total() != 0 {
		t.Error("empty profile not zero")
	}
}
