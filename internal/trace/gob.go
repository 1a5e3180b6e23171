package trace

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// Binary (gob) trace files: ~3-5x smaller and faster than JSON for large
// traces; JSON remains the interchange format.

// gobFormat leads every gob trace. Format 2 stores address histograms as
// sorted cells. Format 3 drops the stored edges: a graph carries only its
// node pairs, from which adcfg.Graph.Edges derives the edges. Gob skips
// fields a type no longer has, so a headerless format-1 stream (map
// histograms) would otherwise decode into a trace with every histogram
// empty, and a format-2 reader would decode a format-3 trace with no
// edges and hash it differently; the header makes both fail instead.
const gobFormat = 3

// WriteGob writes the trace in gob form.
func (t *ProgramTrace) WriteGob(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(gobFormat); err != nil {
		return fmt.Errorf("trace: gob encode: %w", err)
	}
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: gob encode: %w", err)
	}
	return nil
}

// SaveGob writes the trace to a binary file.
func (t *ProgramTrace) SaveGob(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := t.WriteGob(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadGob decodes a gob trace. Structurally invalid traces — decodable
// bytes that would panic Encode or Hash later — are rejected here.
func ReadGob(r io.Reader) (*ProgramTrace, error) {
	dec := gob.NewDecoder(r)
	var format int
	if err := dec.Decode(&format); err != nil {
		return nil, fmt.Errorf("trace: gob decode: format header: %w", err)
	}
	if format != gobFormat {
		return nil, fmt.Errorf("trace: gob format %d, want %d", format, gobFormat)
	}
	var t ProgramTrace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: gob decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadGob reads a binary trace file.
func LoadGob(path string) (*ProgramTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ReadGob(f)
}

// Load reads a trace file in either format, by extension: ".gob" is
// binary, anything else JSON.
func Load(path string) (*ProgramTrace, error) {
	if len(path) > 4 && path[len(path)-4:] == ".gob" {
		return LoadGob(path)
	}
	return LoadJSON(path)
}

// Save writes a trace file in the format selected by the extension.
func (t *ProgramTrace) Save(path string) error {
	if len(path) > 4 && path[len(path)-4:] == ".gob" {
		return t.SaveGob(path)
	}
	return t.SaveJSON(path)
}
