package trace

import (
	"bytes"
	"strings"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/isa"
)

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := mkTrace().Validate(); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	empty := &ProgramTrace{Program: "p"}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
}

func TestValidateRejectsNilParts(t *testing.T) {
	cases := map[string]func(*ProgramTrace){
		"nil invocation": func(tr *ProgramTrace) { tr.Invocations[0] = nil },
		"nil graph":      func(tr *ProgramTrace) { tr.Invocations[0].Graph = nil },
		"nil node": func(tr *ProgramTrace) {
			g := tr.Invocations[0].Graph
			for id := range g.Nodes {
				g.Nodes[id] = nil
				break
			}
		},
		"nil visit": func(tr *ProgramTrace) {
			g := tr.Invocations[0].Graph
			for _, n := range g.Nodes {
				if len(n.Visits) > 0 {
					n.Visits[0] = nil
					return
				}
			}
			t.Fatal("mkTrace has no visits to corrupt")
		},
	}
	var nilTrace *ProgramTrace
	if err := nilTrace.Validate(); err == nil {
		t.Error("nil trace accepted")
	}
	for name, corrupt := range cases {
		tr := mkTrace()
		corrupt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestValidateRejectsBlockIDs checks the node ID bound: the evidence
// merge sizes its site index by block ID, so a decoded trace must not
// carry a negative ID or one past MaxBlockID.
func TestValidateRejectsBlockIDs(t *testing.T) {
	for _, id := range []int{-3, MaxBlockID + 1} {
		tr := mkTrace()
		tr.Invocations[0].Graph.Nodes[id] = &adcfg.Node{Block: id}
		if err := tr.Validate(); err == nil {
			t.Errorf("node ID %d accepted", id)
		}
	}
	tr := mkTrace()
	tr.Invocations[0].Graph.Nodes[MaxBlockID] = &adcfg.Node{Block: MaxBlockID}
	if err := tr.Validate(); err != nil {
		t.Errorf("node ID MaxBlockID rejected: %v", err)
	}
}

// TestDecodersRejectInvalid proves both decoders run validation: a trace
// whose graph pointer is lost in transit (gob omits nil pointer fields;
// JSON carries an explicit null) must error at decode time instead of
// panicking later in Hash or Encode.
func TestDecodersRejectInvalid(t *testing.T) {
	tr := mkTrace()
	tr.Invocations[1].Graph = nil
	var buf bytes.Buffer
	if err := tr.WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGob(&buf); err == nil {
		t.Error("gob decoder accepted a trace with a nil graph")
	}

	if _, err := ReadJSON(strings.NewReader(`{"Program":"p","Invocations":[null]}`)); err == nil {
		t.Error("json decoder accepted a nil invocation")
	}
	if _, err := ReadJSON(strings.NewReader(`{"Program":"p","Invocations":[{"Kernel":"k","Graph":null}]}`)); err == nil {
		t.Error("json decoder accepted a nil graph")
	}
}

// TestValidateRejectsMalformedCells corrupts a histogram's cells — out of
// order, repeated, or with a non-positive count — and checks that
// validation and the gob decoder both reject it: merge walks cells in
// address order and relies on it.
func TestValidateRejectsMalformedCells(t *testing.T) {
	withHist := func() *ProgramTrace {
		tr := mkTrace()
		g := adcfg.NewGraph("k3")
		f := adcfg.NewWarpFolder(g, nil)
		f.EnterBlock(0)
		f.MemAccess(0, isa.SpaceGlobal, false, []int64{8, 4, 8, 12})
		f.Finish()
		tr.Invocations = append(tr.Invocations, &Invocation{Seq: 2, StackID: "main/c/k3", Kernel: "k3", Graph: g})
		return tr
	}
	cells := func(tr *ProgramTrace) []adcfg.Cell { return tr.Invocations[2].Graph.Nodes[0].Visits[0].Mems[0].Cells }
	if tr := withHist(); tr.Validate() != nil || len(cells(tr)) != 3 {
		t.Fatalf("well-formed histogram rejected or fixture changed: %v", cells(tr))
	}
	cases := map[string]func([]adcfg.Cell){
		"descending": func(c []adcfg.Cell) { c[0], c[1] = c[1], c[0] },
		"repeated":   func(c []adcfg.Cell) { c[1].Addr = c[0].Addr },
		"zero count": func(c []adcfg.Cell) { c[2].Count = 0 },
		"negative":   func(c []adcfg.Cell) { c[0].Count = -1 },
	}
	for name, corrupt := range cases {
		tr := withHist()
		corrupt(cells(tr))
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		var buf bytes.Buffer
		if err := tr.WriteGob(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadGob(&buf); err == nil {
			t.Errorf("%s: gob decoder accepted", name)
		}
	}
}
