package microarch

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"owl/internal/isa"
	"owl/internal/simt"
	"owl/internal/trace"
)

func seq(start, stride, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(start + i*stride)
	}
	return out
}

func TestBankConflictDegree(t *testing.T) {
	tests := []struct {
		name  string
		addrs []int64
		want  int
	}{
		{"empty", nil, 0},
		{"single lane", []int64{17}, 1},
		{"broadcast: all lanes same word", seq(5, 0, 32), 1},
		{"stride-1 full warp", seq(0, 1, 32), 1},
		{"stride-1 offset base", seq(97, 1, 32), 1},
		{"2-way: stride 2", seq(0, 2, 32), 2},
		{"4-way: stride 4", seq(0, 4, 32), 4},
		{"worst case: stride 32", seq(0, 32, 32), 32},
		{"worst case: same bank distinct words", seq(7, 32, 32), 32},
		{"two groups broadcast", append(seq(3, 0, 16), seq(4, 0, 16)...), 1},
		{"mixed: broadcast plus odd-word stride-2 stays conflict-free", append(seq(0, 0, 16), seq(1, 2, 16)...), 1},
		{"mixed: broadcast plus 2-way same-bank", []int64{0, 0, 0, 1, 33}, 2},
		{"padded stride 33 is conflict-free", seq(0, 33, 32), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := BankConflictDegree(tt.addrs); got != tt.want {
				t.Errorf("BankConflictDegree(%v) = %d, want %d", tt.addrs, got, tt.want)
			}
		})
	}
}

// bankDegreeRef is a straightforward reference model: distinct words per
// bank via maps, degree = max over banks.
func bankDegreeRef(addrs []int64) int {
	banks := make(map[int64]map[int64]struct{})
	for _, a := range addrs {
		b := ((a % NumBanks) + NumBanks) % NumBanks
		if banks[b] == nil {
			banks[b] = make(map[int64]struct{})
		}
		banks[b][a] = struct{}{}
	}
	deg := 0
	for _, words := range banks {
		if len(words) > deg {
			deg = len(words)
		}
	}
	return deg
}

func TestBankConflictDegreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 4000; iter++ {
		n := 1 + rng.Intn(simt.WarpWidth)
		addrs := make([]int64, n)
		switch iter % 4 {
		case 0, 1:
			for i := range addrs {
				// Small ranges force collisions; occasional large values probe
				// wrap behaviour.
				if rng.Intn(8) == 0 {
					addrs[i] = rng.Int63n(1 << 40)
				} else {
					addrs[i] = int64(rng.Intn(96))
				}
			}
		case 2:
			// Heavy duplicates: every lane picks one of a few words, spread
			// over banks or stacked in one bank, negative words included.
			words := make([]int64, 1+rng.Intn(4))
			for i := range words {
				words[i] = int64(rng.Intn(8)-4) * int64(1+rng.Intn(2)*(NumBanks-1))
			}
			for i := range addrs {
				addrs[i] = words[rng.Intn(len(words))]
			}
		case 3:
			// Broadcast: every lane reads one word, some at a word in the
			// same bank, or a whole warp of distinct same-bank words.
			w := rng.Int63n(1<<40) - 1<<39
			for i := range addrs {
				addrs[i] = w
				if rng.Intn(4) == 0 {
					addrs[i] = w + int64(rng.Intn(3))*NumBanks
				}
			}
			if rng.Intn(8) == 0 {
				addrs = seq(int(w%1000), NumBanks, simt.WarpWidth)
			}
		}
		got, want := BankConflictDegree(addrs), bankDegreeRef(addrs)
		if got != want {
			t.Fatalf("BankConflictDegree(%v) = %d, reference %d", addrs, got, want)
		}
		if got < 1 || got > NumBanks {
			t.Fatalf("degree %d outside [1,%d] for non-empty access", got, NumBanks)
		}
	}
}

func TestTransactions(t *testing.T) {
	tests := []struct {
		name  string
		addrs []int64
		want  int
	}{
		{"empty", nil, 0},
		{"single", []int64{5}, 1},
		{"fully coalesced", seq(0, 1, 16), 1},
		{"two lines", seq(8, 1, 16), 2},
		{"strided by line", []int64{0, 16, 32, 48}, 4},
		{"all same word", []int64{7, 7, 7, 7}, 1},
		{"worst case 32 lanes", seq(0, 16, 32), 32},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Transactions(tt.addrs); got != tt.want {
				t.Errorf("Transactions(%v) = %d, want %d", tt.addrs, got, tt.want)
			}
		})
	}
}

func TestTransactionsPartialWarp(t *testing.T) {
	tests := []struct {
		name  string
		addrs []int64
		want  int
	}{
		{"empty", nil, 0},
		{"half warp one line", seq(0, 1, 16), 1},
		{"half warp strided", seq(0, WordsPerLine, 16), 16},
		{"three lanes two lines", []int64{0, 15, 16}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Transactions(tt.addrs); got != tt.want {
				t.Errorf("Transactions(%v) = %d, want %d", tt.addrs, got, tt.want)
			}
		})
	}
}

func TestPowerProxyMatchesOnesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 2000; iter++ {
		var vals [simt.WarpWidth]int64
		for i := range vals {
			vals[i] = int64(rng.Uint64())
		}
		mask := uint32(rng.Uint32())
		var want int64
		for l := 0; l < simt.WarpWidth; l++ {
			if mask&(1<<uint(l)) != 0 {
				want += int64(bits.OnesCount64(uint64(vals[l])))
			}
		}
		if got := PowerProxy(&vals, mask); got != want {
			t.Fatalf("PowerProxy mask %08x = %d, want %d", mask, got, want)
		}
	}
	// Random masks almost never select every lane, so the full-warp
	// path, the top lane alone and the empty mask are fixed cases.
	var vals [simt.WarpWidth]int64
	for i := range vals {
		vals[i] = int64(rng.Uint64())
	}
	vals[simt.WarpWidth-1] = -1
	var all int64
	for _, v := range vals {
		all += int64(bits.OnesCount64(uint64(v)))
	}
	for _, tc := range []struct {
		mask uint32
		want int64
	}{
		{0xFFFFFFFF, all},
		{1 << 31, 64},
		{0, 0},
	} {
		if got := PowerProxy(&vals, tc.mask); got != tc.want {
			t.Errorf("PowerProxy mask %08x = %d, want %d", tc.mask, got, tc.want)
		}
	}
}

// testKernel returns a kernel whose blocks hold the given code, written
// as one letter per instruction: 'm' a memory instruction, anything else
// an arithmetic one. Only the layout matters to a Collector.
func testKernel(blocks ...string) *isa.Kernel {
	k := &isa.Kernel{Name: "layout"}
	for id, code := range blocks {
		b := &isa.Block{ID: id, Term: isa.Terminator{Kind: isa.TermRet}}
		for _, c := range code {
			op := isa.OpAdd
			if c == 'm' {
				op = isa.OpLoad
			}
			b.Code = append(b.Code, isa.Instr{Op: op})
		}
		k.Blocks = append(k.Blocks, b)
	}
	return k
}

func TestCollectorAggregation(t *testing.T) {
	k := testKernel("am", "", "mamamaa")
	c := NewCollector(k)
	if sites := c.Sites(nil); sites != nil {
		t.Fatalf("new collector has sites %+v", sites)
	}
	// Two shared accesses at the same site: degrees 1 and 4.
	c.RecordMem(2, 0, isa.SpaceShared, seq(0, 1, 32))
	c.RecordMem(2, 0, isa.SpaceShared, seq(0, 4, 32))
	// One global access: 32 consecutive words = 2 lines.
	c.RecordMem(2, 1, isa.SpaceGlobal, seq(0, 1, 32))
	// Local/constant spaces must be ignored.
	c.RecordMem(2, 2, isa.SpaceLocal, seq(0, 1, 32))
	// A register write of all-ones values over 4 lanes.
	var vals [simt.WarpWidth]int64
	for i := range vals {
		vals[i] = -1
	}
	c.RecordRegWrite(2, 5, &vals, 0xF)

	sites := c.Sites(nil)
	want := []trace.CostSite{
		{Block: 2, Instr: 0, Metric: trace.CostBank, Events: 2, Total: 5},
		{Block: 2, Instr: 1, Metric: trace.CostCoalesce, Events: 1, Total: 2},
		{Block: 2, Instr: 5, Metric: trace.CostPower, Events: 1, Total: 4 * 64},
	}
	if !slices.Equal(sites, want) {
		t.Fatalf("sites = %+v, want %+v", sites, want)
	}
}

// siteKey identifies one mapCollector accumulator.
type siteKey struct {
	metric trace.CostMetric
	block  int
	instr  int
}

// mapCollector is the reference for Collector: the same observables
// aggregated in a map keyed by (metric, block, instruction) and sorted
// when rendered, with no knowledge of the kernel's layout.
type mapCollector struct {
	agg map[siteKey]cell
}

func newMapCollector() *mapCollector {
	return &mapCollector{agg: make(map[siteKey]cell)}
}

func (c *mapCollector) add(k siteKey, cost int64) {
	e := c.agg[k]
	e.add(cost)
	c.agg[k] = e
}

func (c *mapCollector) RecordMem(block, memIdx int, space isa.Space, addrs []int64) {
	if len(addrs) == 0 {
		return
	}
	switch space {
	case isa.SpaceShared:
		c.add(siteKey{trace.CostBank, block, memIdx}, int64(BankConflictDegree(addrs)))
	case isa.SpaceGlobal:
		c.add(siteKey{trace.CostCoalesce, block, memIdx}, int64(Transactions(addrs)))
	}
}

func (c *mapCollector) RecordRegWrite(block, instr int, vals *[simt.WarpWidth]int64, mask uint32) {
	if mask == 0 {
		return
	}
	c.add(siteKey{trace.CostPower, block, instr}, PowerProxy(vals, mask))
}

func (c *mapCollector) Sites() []trace.CostSite {
	if len(c.agg) == 0 {
		return nil
	}
	out := make([]trace.CostSite, 0, len(c.agg))
	for k, e := range c.agg {
		out = append(out, trace.CostSite{Block: k.block, Instr: k.instr, Metric: k.metric, Events: e.events, Total: e.total})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Instr < b.Instr
	})
	return out
}

// TestCollectorMatchesMapReference feeds random RecordMem and
// RecordRegWrite sequences over generated multi-block kernels to dense
// collectors and to map references, and requires identical sites from
// every pair, including collectors that never record.
func TestCollectorMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spaces := []isa.Space{isa.SpaceShared, isa.SpaceGlobal, isa.SpaceLocal, isa.SpaceConstant}
	for iter := 0; iter < 500; iter++ {
		// Blocks of 0-11 instructions, some with no memory instruction.
		blocks := make([]string, 1+rng.Intn(6))
		for i := range blocks {
			code := make([]byte, rng.Intn(12))
			for j := range code {
				code[j] = "mma"[rng.Intn(3)]
			}
			blocks[i] = string(code)
		}
		k := testKernel(blocks...)
		dense := make([]*Collector, 1+rng.Intn(3))
		ref := make([]*mapCollector, len(dense))
		for i := range dense {
			dense[i], ref[i] = NewCollector(k), newMapCollector()
		}
		for op := rng.Intn(60); op > 0; op-- {
			i := rng.Intn(len(dense))
			b := rng.Intn(len(blocks))
			code := k.Blocks[b].Code
			switch rng.Intn(3) {
			case 0, 1:
				mems := len(k.Blocks[b].MemInstrs())
				if mems == 0 {
					continue
				}
				m := rng.Intn(mems)
				space := spaces[rng.Intn(len(spaces))]
				addrs := make([]int64, rng.Intn(simt.WarpWidth+1))
				for l := range addrs {
					addrs[l] = int64(rng.Intn(128))
				}
				dense[i].RecordMem(b, m, space, addrs)
				ref[i].RecordMem(b, m, space, addrs)
			case 2:
				if len(code) == 0 {
					continue
				}
				instr := rng.Intn(len(code))
				var vals [simt.WarpWidth]int64
				for l := range vals {
					vals[l] = int64(rng.Uint64())
				}
				mask := []uint32{0, 0xFFFFFFFF, rng.Uint32()}[rng.Intn(3)]
				dense[i].RecordRegWrite(b, instr, &vals, mask)
				ref[i].RecordRegWrite(b, instr, &vals, mask)
			}
		}
		for i := range dense {
			got, want := dense[i].Sites(nil), ref[i].Sites()
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("iter %d kernel %q collector %d: sites\n%+v\nwant\n%+v", iter, blocks, i, got, want)
			}
		}
	}
}
