package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestGobRoundtrip(t *testing.T) {
	orig := mkTrace()
	var buf bytes.Buffer
	if err := orig.WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != orig.Hash() {
		t.Error("gob roundtrip changed the canonical hash")
	}
}

func TestSaveLoadByExtension(t *testing.T) {
	dir := t.TempDir()
	orig := mkTrace()
	for _, name := range []string{"t.json", "t.gob"} {
		path := filepath.Join(dir, name)
		if err := orig.Save(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Hash() != orig.Hash() {
			t.Errorf("%s roundtrip changed the hash", name)
		}
	}
}

func TestGobSmallerThanJSON(t *testing.T) {
	orig := mkTrace()
	var j, g bytes.Buffer
	if err := orig.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteGob(&g); err != nil {
		t.Fatal(err)
	}
	// Tiny traces pay gob's type-descriptor overhead; just sanity-check
	// both produced output and report the ratio.
	if j.Len() == 0 || g.Len() == 0 {
		t.Fatal("empty encodings")
	}
	t.Logf("json=%d bytes, gob=%d bytes", j.Len(), g.Len())
}

func TestReadGobGarbage(t *testing.T) {
	if _, err := ReadGob(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadGob("/nonexistent.gob"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReadGobRejectsOtherFormats feeds a headerless stream, the framing
// of format-1 files whose map histograms this decoder cannot read, and a
// stream with a foreign format number: both must fail to decode rather
// than load with empty histograms.
func TestReadGobRejectsOtherFormats(t *testing.T) {
	var headerless bytes.Buffer
	if err := gob.NewEncoder(&headerless).Encode(mkTrace()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGob(&headerless); err == nil {
		t.Error("headerless stream accepted")
	}
	var foreign bytes.Buffer
	enc := gob.NewEncoder(&foreign)
	if err := enc.Encode(gobFormat + 1); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(mkTrace()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGob(&foreign); err == nil {
		t.Error("foreign format accepted")
	}
}

// TestReadGobRejectsFormat2 feeds a format-2 stream, whose graphs stored
// their edges: the error must name both formats, so a mismatch across
// versions fails loudly instead of loading and hashing differently.
func TestReadGobRejectsFormat2(t *testing.T) {
	var old bytes.Buffer
	enc := gob.NewEncoder(&old)
	if err := enc.Encode(2); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(mkTrace()); err != nil {
		t.Fatal(err)
	}
	_, err := ReadGob(&old)
	if err == nil {
		t.Fatal("format-2 stream accepted")
	}
	for _, want := range []string{"format 2", fmt.Sprintf("want %d", gobFormat)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q omits %q", err, want)
		}
	}
}
