package adcfg

import (
	"encoding/json"
	"testing"

	"owl/internal/isa"
)

func TestJSONRoundtripPreservesHash(t *testing.T) {
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	f.EnterBlock(0)
	f.MemAccess(0, isa.SpaceGlobal, false, []int64{5, 6, 5})
	f.EnterBlock(1)
	f.MemAccess(0, isa.SpaceShared, true, []int64{7})
	f.Finish()
	f2 := NewWarpFolder(g, nil)
	f2.EnterBlock(0)
	f2.EnterBlock(2)
	f2.Finish()

	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(&back) {
		t.Error("JSON roundtrip changed the canonical hash")
	}
	if back.Warps != 2 {
		t.Errorf("warps = %d", back.Warps)
	}
}

func TestJSONDeterministicOutput(t *testing.T) {
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	for _, b := range []int{0, 2, 1, 2, 0} {
		f.EnterBlock(b)
		f.MemAccess(0, isa.SpaceGlobal, false, []int64{int64(b * 3)})
	}
	f.Finish()
	a, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("marshal not deterministic")
	}
}

func TestJSONUnmarshalGarbage(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"nodes": "nope"}`), &g); err == nil {
		t.Error("garbage accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &g); err == nil {
		t.Error("non-json accepted")
	}
}

func TestJSONNilMemEntryPreserved(t *testing.T) {
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	f.EnterBlock(0)
	// Mem index 1 recorded without index 0: slot 0 stays nil.
	f.MemAccess(1, isa.SpaceGlobal, false, []int64{9})
	f.Finish()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	v := back.Nodes[0].Visits[0]
	if v.Mems[0] != nil {
		t.Error("nil mem slot materialized")
	}
	if v.Mems[1] == nil || countAt(v.Mems[1], 9) != 1 {
		t.Errorf("mem slot 1 lost: %+v", v.Mems)
	}
}
