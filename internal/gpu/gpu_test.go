package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"owl/internal/isa"
	"owl/internal/kbuild"
)

func newDev(t testing.TB, cfg Config) *Device {
	t.Helper()
	d, err := NewDevice(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallConfig() Config {
	return Config{GlobalWords: 1 << 16, ConstWords: 1 << 10}
}

// writeTid stores the flat global thread id at global[tid].
func writeTidKernel() *isa.Kernel {
	b := kbuild.New("write_tid", 1)
	tid := b.Tid()
	base := b.Param(0)
	b.Store(isa.SpaceGlobal, b.Add(base, tid), 0, tid)
	b.Ret()
	return b.MustBuild()
}

func TestAllocSequentialAndAligned(t *testing.T) {
	d := newDev(t, smallConfig())
	a, err := d.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(5)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != 0 || b.ID != 1 {
		t.Errorf("ids = %d, %d", a.ID, b.ID)
	}
	if b.Base%32 != 0 || b.Base < a.Base+a.Words {
		t.Errorf("bases = %d(%d words), %d", a.Base, a.Words, b.Base)
	}
	if got := d.Allocs(); len(got) != 2 {
		t.Errorf("Allocs = %v", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	d := newDev(t, Config{GlobalWords: 64, ConstWords: 1})
	if _, err := d.Alloc(65); err == nil {
		t.Error("oversized alloc accepted")
	}
	if _, err := d.Alloc(0); err == nil {
		t.Error("zero alloc accepted")
	}
}

func TestASLRSlidesAllocations(t *testing.T) {
	cfg := Config{GlobalWords: 1 << 16, ConstWords: 1, ASLR: true}
	bases := make(map[int64]bool)
	for seed := int64(0); seed < 8; seed++ {
		d, err := NewDevice(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := d.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		bases[rec.Base] = true
	}
	if len(bases) < 3 {
		t.Errorf("ASLR produced only %d distinct bases", len(bases))
	}
	if _, err := NewDevice(cfg, nil); err == nil {
		t.Error("ASLR without rng accepted")
	}
}

func TestMemoryRoundtrip(t *testing.T) {
	d := newDev(t, smallConfig())
	data := []int64{1, 2, 3}
	if err := d.WriteGlobal(100, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadGlobal(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Errorf("word %d = %d", i, got[i])
		}
	}
	if err := d.WriteGlobal(-1, data); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := d.ReadGlobal(1<<16-1, 2); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := d.WriteConstant(0, []int64{9}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteConstant(1<<10, []int64{9}); err == nil {
		t.Error("out-of-range constant write accepted")
	}
}

func TestLaunchCoversGrid(t *testing.T) {
	d := newDev(t, smallConfig())
	st, err := d.Launch(writeTidKernel(), D1(4), D1(64), []int64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Threads != 256 || st.Warps != 8 {
		t.Errorf("stats = %+v", st)
	}
	got, err := d.ReadGlobal(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("global[%d] = %d", i, v)
		}
	}
}

func TestLaunchMultiDimBlocks(t *testing.T) {
	d := newDev(t, smallConfig())
	k := func() *isa.Kernel {
		b := kbuild.New("dims", 0)
		tx := b.Special(isa.SpecTidX)
		ty := b.Special(isa.SpecTidY)
		nx := b.Special(isa.SpecNtidX)
		flat := b.Add(b.Mul(ty, nx), tx)
		g := b.Tid()
		b.Store(isa.SpaceGlobal, g, 0, flat)
		b.Ret()
		return b.MustBuild()
	}()
	if _, err := d.Launch(k, D1(1), Dim3{X: 8, Y: 4, Z: 1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadGlobal(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Errorf("flat tid %d = %d", i, v)
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	d := newDev(t, smallConfig())
	k := writeTidKernel()
	if _, err := d.Launch(k, D1(1), D1(2000), []int64{0}, nil); err == nil {
		t.Error("oversized block accepted")
	}
	if _, err := d.Launch(k, D1(0), D1(32), []int64{0}, nil); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestSharedMemoryWithinBlock(t *testing.T) {
	// Warp 0 writes shared[lane]; since warps run in launch order within a
	// block, warp 1 reads lane-mirrored values.
	b := kbuild.New("shared", 1)
	b.SetShared(32)
	wid := b.Special(isa.SpecWarpID)
	lane := b.Special(isa.SpecLaneID)
	isFirst := b.CmpEQ(wid, b.ConstR(0))
	b.If(isFirst, func() {
		b.Store(isa.SpaceShared, lane, 0, b.Add(lane, b.ConstR(100)))
	}, func() {
		v := b.Load(isa.SpaceShared, lane, 0)
		out := b.Param(0)
		b.Store(isa.SpaceGlobal, b.Add(out, lane), 0, v)
	})
	b.Ret()
	k := b.MustBuild()
	d := newDev(t, smallConfig())
	if _, err := d.Launch(k, D1(1), D1(64), []int64{0}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadGlobal(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(100+i) {
			t.Errorf("shared[%d] = %d", i, v)
		}
	}
}

func TestSharedMemoryIsPerBlock(t *testing.T) {
	// Each block writes then reads its own shared slot; cross-block
	// interference would corrupt the block index.
	b := kbuild.New("pershared", 1)
	b.SetShared(1)
	blk := b.Special(isa.SpecCtaidX)
	lane := b.Special(isa.SpecLaneID)
	isZero := b.CmpEQ(lane, b.ConstR(0))
	b.If(isZero, func() {
		b.Store(isa.SpaceShared, b.ConstR(0), 0, blk)
		v := b.Load(isa.SpaceShared, b.ConstR(0), 0)
		out := b.Param(0)
		b.Store(isa.SpaceGlobal, b.Add(out, blk), 0, v)
	}, nil)
	b.Ret()
	k := b.MustBuild()
	d := newDev(t, smallConfig())
	if _, err := d.Launch(k, D1(4), D1(32), []int64{0}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadGlobal(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Errorf("block %d saw shared value %d", i, v)
		}
	}
}

func TestConstantMemoryReadOnly(t *testing.T) {
	b := kbuild.New("wconst", 0)
	b.Store(isa.SpaceConstant, b.ConstR(0), 0, b.ConstR(1))
	b.Ret()
	k := b.MustBuild()
	d := newDev(t, smallConfig())
	if _, err := d.Launch(k, D1(1), D1(32), nil, nil); err == nil {
		t.Error("constant store accepted")
	}
}

func TestOutOfRangeAccessTraps(t *testing.T) {
	b := kbuild.New("oob", 0)
	b.Load(isa.SpaceGlobal, b.ConstR(1<<40), 0)
	b.Ret()
	k := b.MustBuild()
	d := newDev(t, smallConfig())
	if _, err := d.Launch(k, D1(1), D1(32), nil, nil); err == nil {
		t.Error("out-of-range load accepted")
	}
}

func TestDim3Count(t *testing.T) {
	if (Dim3{X: 2, Y: 3, Z: 4}).Count() != 24 {
		t.Error("count wrong")
	}
	if (Dim3{X: 5}).Count() != 5 {
		t.Error("zero dims should count as 1")
	}
	if D1(7).Count() != 7 {
		t.Error("D1 wrong")
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	// Warp 1 produces into shared memory, warp 0 consumes AFTER the
	// barrier — the reverse of launch order, so sequential warp execution
	// would read zeros. The pass-based barrier scheduler must deliver the
	// produced values.
	b := kbuild.New("xwarp", 1)
	b.SetShared(32)
	wid := b.Special(isa.SpecWarpID)
	lane := b.Special(isa.SpecLaneID)
	isProducer := b.CmpEQ(wid, b.ConstR(1))
	b.If(isProducer, func() {
		b.Store(isa.SpaceShared, lane, 0, b.Add(lane, b.ConstR(500)))
	}, nil)
	b.Barrier()
	isConsumer := b.CmpEQ(wid, b.ConstR(0))
	b.If(isConsumer, func() {
		v := b.Load(isa.SpaceShared, lane, 0)
		out := b.Param(0)
		b.Store(isa.SpaceGlobal, b.Add(out, lane), 0, v)
	}, nil)
	b.Ret()
	k := b.MustBuild()
	d := newDev(t, smallConfig())
	if _, err := d.Launch(k, D1(1), D1(64), []int64{0}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadGlobal(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(500+i) {
			t.Errorf("consumer read shared[%d] = %d, want %d", i, v, 500+i)
		}
	}
}

// TestConstantMemoryIsPerDevice checks what reusing device memory must
// guarantee: a device's constant arena is its own, a Reset truncates it
// so a smaller image reads zero past its end, memory drawn from released
// arenas reads zero, and devices on separate goroutines never see each
// other's writes.
func TestConstantMemoryIsPerDevice(t *testing.T) {
	const imageWords = 1324 // the AES tables and round keys
	cfg := Config{GlobalWords: 1 << 12, ConstWords: 1 << 11}
	image := make([]int64, imageWords)
	for i := range image {
		image[i] = int64(i)*7 + 1
	}
	// read returns constant word addr through the interface fallback and
	// through the direct slice the interpreter indexes.
	read := func(t *testing.T, d *Device, addr int64) (load, direct int64) {
		t.Helper()
		m := &warpMemory{dev: d}
		load, err := m.Load(isa.SpaceConstant, 0, addr)
		if err != nil {
			t.Fatal(err)
		}
		if c := m.Direct().Constant; addr < int64(len(c)) {
			direct = c[addr]
		}
		return load, direct
	}
	write := func(t *testing.T, d *Device, off int64, data []int64) {
		t.Helper()
		if err := d.WriteConstant(off, data); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("copies", func(t *testing.T) {
		a, b := newDev(t, cfg), newDev(t, cfg)
		write(t, a, 0, image)
		write(t, b, 0, image)
		write(t, a, 5, []int64{-1})
		if load, direct := read(t, b, 5); load != image[5] || direct != image[5] {
			t.Errorf("other device reads %d (load) and %d (direct) after an overwrite, want %d", load, direct, image[5])
		}
		if load, direct := read(t, a, 5); load != -1 || direct != -1 {
			t.Errorf("writing device reads %d (load) and %d (direct), want -1", load, direct)
		}
	})

	t.Run("reset-truncates", func(t *testing.T) {
		d := newDev(t, cfg)
		write(t, d, 0, image)
		if err := d.Reset(nil); err != nil {
			t.Fatal(err)
		}
		write(t, d, 0, image[:396])
		for addr := int64(396); addr < imageWords; addr++ {
			if load, direct := read(t, d, addr); load != 0 || direct != 0 {
				t.Fatalf("word %d reads %d (load) and %d (direct) after a reset, want 0", addr, load, direct)
			}
		}
	})

	t.Run("released-reads-zero", func(t *testing.T) {
		d := newDev(t, cfg)
		write(t, d, 0, image)
		if err := d.WriteGlobal(0, image); err != nil {
			t.Fatal(err)
		}
		mem := d.mem
		d.Release()
		// A device built from the released arenas, as the pool hands them
		// to the next device.
		e := &Device{cfg: cfg, mem: mem}
		if err := e.Reset(nil); err != nil {
			t.Fatal(err)
		}
		for addr := int64(0); addr < imageWords; addr++ {
			if load, direct := read(t, e, addr); load != 0 || direct != 0 {
				t.Fatalf("constant word %d reads %d (load) and %d (direct), want 0", addr, load, direct)
			}
		}
		got, err := e.ReadGlobal(0, imageWords)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != 0 {
				t.Fatalf("global word %d reads %d, want 0", i, v)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// out[tid] = const[tid] for every word of the image and the private
		// word after it.
		b := kbuild.New("read_const", 2)
		tid := b.Tid()
		b.If(b.CmpLT(tid, b.Param(1)), func() {
			v := b.Load(isa.SpaceConstant, tid, 0)
			b.Store(isa.SpaceGlobal, b.Add(b.Param(0), tid), 0, v)
		}, nil)
		b.Ret()
		k := b.MustBuild()
		const goroutines, runs, threads = 4, 3, 128
		n := int64(imageWords + 1)
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func(g int) {
				errs <- func() error {
					d, err := NewDevice(cfg, nil)
					if err != nil {
						return err
					}
					defer d.Release()
					for r := 0; r < runs; r++ {
						if err := d.Reset(nil); err != nil {
							return err
						}
						private := int64(-1000 * (g*runs + r + 1))
						if err := d.WriteConstant(0, image); err != nil {
							return err
						}
						if err := d.WriteConstant(imageWords, []int64{private}); err != nil {
							return err
						}
						out, err := d.Alloc(n)
						if err != nil {
							return err
						}
						blocks := int((n + threads - 1) / threads)
						if _, err := d.Launch(k, D1(blocks), D1(threads), []int64{out.Base, n}, nil); err != nil {
							return err
						}
						got, err := d.ReadGlobal(out.Base, n)
						if err != nil {
							return err
						}
						for i, v := range got[:imageWords] {
							if v != image[i] {
								return fmt.Errorf("goroutine %d run %d: const[%d] = %d, want %d", g, r, i, v, image[i])
							}
						}
						if got[imageWords] != private {
							return fmt.Errorf("goroutine %d run %d: private word = %d, want %d", g, r, got[imageWords], private)
						}
					}
					return nil
				}()
			}(g)
		}
		for g := 0; g < goroutines; g++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	})
}
