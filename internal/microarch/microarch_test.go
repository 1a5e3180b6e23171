package microarch

import (
	"math/bits"
	"math/rand"
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
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(simt.WarpWidth)
		addrs := make([]int64, n)
		for i := range addrs {
			// Small ranges force collisions; occasional large values probe
			// wrap behaviour.
			if rng.Intn(8) == 0 {
				addrs[i] = rng.Int63n(1 << 40)
			} else {
				addrs[i] = int64(rng.Intn(96))
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
	var zero [simt.WarpWidth]int64
	if PowerProxy(&zero, 0) != 0 {
		t.Error("empty mask must cost 0")
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector()
	if !c.Empty() {
		t.Fatal("new collector not empty")
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

	sites := c.Sites()
	want := []trace.CostSite{
		{Block: 2, Instr: 0, Metric: trace.CostBank, Events: 2, Total: 5},
		{Block: 2, Instr: 1, Metric: trace.CostCoalesce, Events: 1, Total: 2},
		{Block: 2, Instr: 5, Metric: trace.CostPower, Events: 1, Total: 4 * 64},
	}
	if len(sites) != len(want) {
		t.Fatalf("got %d sites, want %d: %+v", len(sites), len(want), sites)
	}
	for i := range want {
		if sites[i] != want[i] {
			t.Errorf("site %d = %+v, want %+v", i, sites[i], want[i])
		}
	}

	// Merge doubles every aggregate.
	d := NewCollector()
	c.MergeInto(d)
	c.MergeInto(d)
	for _, s := range d.Sites() {
		if s.Events%2 != 0 || s.Total%2 != 0 {
			t.Errorf("merged site %+v not doubled", s)
		}
	}
	c.Reset()
	if !c.Empty() {
		t.Error("reset collector not empty")
	}
}
