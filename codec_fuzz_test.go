package owl_test

// Corrupt-input robustness for the exported trace codecs. These byte
// streams are the cluster wire format and the owltrace archive format, so
// a truncated upload, a version-skewed peer, or plain garbage must come
// back as an error — never a panic, and never a trace that panics later
// in Hash or Encode.

import (
	"bytes"
	"strings"
	"testing"

	"owl"
	"owl/internal/adcfg"
)

// recordedTrace records one real trace through the public API.
func recordedTrace(t *testing.T) *owl.ProgramTrace {
	t.Helper()
	opts := owl.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 2, 2
	det, err := owl.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := det.RecordOnce(newLeakyTable(t), []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDecodeTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := owl.EncodeTrace(&buf, recordedTrace(t)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n += 7 {
		if _, err := owl.DecodeTrace(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(full))
		}
	}
}

func TestDecodeTraceGarbage(t *testing.T) {
	for _, in := range []string{"", "junk", "\x00\x01\x02\x03", strings.Repeat("\xff", 64)} {
		if _, err := owl.DecodeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("garbage %q accepted", in)
		}
	}
}

func TestDecodeTraceJSONGarbage(t *testing.T) {
	for _, in := range []string{"", "{", "[]", `"str"`, "junk", `{"Program":1}`} {
		if _, err := owl.DecodeTraceJSON(strings.NewReader(in)); err == nil {
			t.Errorf("garbage %q accepted", in)
		}
	}
}

// TestDecodeTraceJSONStructurallyInvalid feeds decodable JSON whose shape
// would panic Hash/Encode: nil invocations and invocations without a
// graph must be rejected by validation, not crash later.
func TestDecodeTraceJSONStructurallyInvalid(t *testing.T) {
	cases := map[string]string{
		"nil invocation": `{"Program":"p","Invocations":[null]}`,
		"nil graph":      `{"Program":"p","Invocations":[{"Kernel":"k"}]}`,
	}
	for name, in := range cases {
		if _, err := owl.DecodeTraceJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzDecodeTrace: whatever bytes arrive, DecodeTrace either errors or
// returns a trace that survives Hash and a re-encode round-trip.
func FuzzDecodeTrace(f *testing.F) {
	opts := owl.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 2, 2
	det, err := owl.NewDetector(opts)
	if err != nil {
		f.Fatal(err)
	}
	b := owl.NewKernelBuilder("lookup", 2)
	table, secret := b.Param(0), b.Param(1)
	b.Load(owl.Global, b.Add(table, b.And(secret, b.ConstR(63))), 0)
	b.Ret()
	k, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	tr, err := det.RecordOnce(&leakyTable{kernel: k}, []byte{5})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := owl.EncodeTrace(&valid, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte("junk"))
	f.Add([]byte{})
	for _, seed := range malformedCellTraces(f, valid.Bytes()) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := owl.DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := got.Hash() // must not panic
		var re bytes.Buffer
		if err := owl.EncodeTrace(&re, got); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		back, err := owl.DecodeTrace(&re)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if back.Hash() != h {
			t.Fatal("gob round-trip changed the canonical hash")
		}
	})
}

// malformedCellTraces re-encodes the valid trace with its first address
// histogram broken in each way validation must catch: a zero or negative
// count, a repeated address, and cells out of address order.
func malformedCellTraces(f *testing.F, valid []byte) [][]byte {
	f.Helper()
	mutations := []func(cells []adcfg.Cell) []adcfg.Cell{
		func(c []adcfg.Cell) []adcfg.Cell { c[0].Count = 0; return c },
		func(c []adcfg.Cell) []adcfg.Cell { c[0].Count = -3; return c },
		func(c []adcfg.Cell) []adcfg.Cell { return append(c, c[len(c)-1]) },
		func(c []adcfg.Cell) []adcfg.Cell { return append(c, adcfg.Cell{Addr: c[len(c)-1].Addr - 1, Count: 1}) },
	}
	var seeds [][]byte
	for _, mutate := range mutations {
		tr, err := owl.DecodeTrace(bytes.NewReader(valid))
		if err != nil {
			f.Fatal(err)
		}
		h := firstHist(tr)
		if h == nil {
			f.Fatal("recorded trace has no address histogram to corrupt")
		}
		h.Cells = mutate(h.Cells)
		var buf bytes.Buffer
		if err := owl.EncodeTrace(&buf, tr); err != nil {
			f.Fatal(err)
		}
		if _, err := owl.DecodeTrace(bytes.NewReader(buf.Bytes())); err == nil {
			f.Fatalf("malformed cells %v decoded without error", h.Cells)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// firstHist returns the first non-empty address histogram of tr.
func firstHist(tr *owl.ProgramTrace) *adcfg.MemHist {
	for _, inv := range tr.Invocations {
		for _, n := range inv.Graph.Nodes {
			for _, v := range n.Visits {
				for _, h := range v.Mems {
					if h != nil && len(h.Cells) > 0 {
						return h
					}
				}
			}
		}
	}
	return nil
}

// FuzzDecodeTraceJSON mirrors FuzzDecodeTrace for the interchange format.
func FuzzDecodeTraceJSON(f *testing.F) {
	f.Add([]byte(`{"Program":"p","Invocations":[],"Allocs":null}`))
	f.Add([]byte(`{"Program":"p","Invocations":[null]}`))
	f.Add([]byte(`{"Program":"p","Invocations":[{"Kernel":"k"}]}`))
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := owl.DecodeTraceJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = got.Hash() // must not panic on anything the decoder admits
		var re bytes.Buffer
		if err := owl.EncodeTraceJSON(&re, got); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
	})
}
