package cluster

import (
	"context"
	"reflect"
	"testing"

	"owl/internal/core"
	"owl/internal/workloads/gpucrypto"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewReportCache(2)
	r1, r2, r3 := &core.Report{Program: "a"}, &core.Report{Program: "b"}, &core.Report{Program: "c"}
	c.Add("a", r1)
	c.Add("b", r2)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Add("c", r3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("a"); !ok || got != r1 {
		t.Error("a lost")
	}
	if got, ok := c.Get("c"); !ok || got != r3 {
		t.Error("c lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewReportCache(-1)
	c.Add("k", &core.Report{})
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache served a hit")
	}
}

// TestFingerprintPinned pins the fleet cache's content key for one fixed
// program, input and option set. Fleet caches span processes, so these
// bytes must never move: the literal predates OptionsKey.
func TestFingerprintPinned(t *testing.T) {
	const want = "571584d68a86b550196dc12e31a1b6eb1d9eb64431823399797a063305b6a358"
	opts := core.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 20, 20
	opts.Evidence = core.EvidenceConfig{
		Mode:      core.EvidenceBoth,
		Channels:  []string{core.ChannelADCFG, core.ChannelCost},
		EarlyStop: core.EarlyStopPolicy{Enabled: true},
	}
	got, err := Fingerprint(context.Background(), gpucrypto.NewAES(gpucrypto.WithBlocks(16)),
		[][]byte{[]byte("0123456789abcdef")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Fingerprint = %s, want %s", got, want)
	}
}

// TestOptionsKeyRendersDevice fails when gpu.Config gains a field that
// OptionsKey does not render: the key spells the device out field by
// field, and a device option it leaves out would let reports recorded on
// different devices alias in the report caches.
func TestOptionsKeyRendersDevice(t *testing.T) {
	opts := core.DefaultOptions()
	base := OptionsKey(opts)
	typ := reflect.TypeOf(opts.Device)
	for i := 0; i < typ.NumField(); i++ {
		changed := opts
		f := reflect.ValueOf(&changed.Device).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("gpu.Config.%s has kind %v, which this test cannot vary", typ.Field(i).Name, f.Kind())
		}
		if OptionsKey(changed) == base {
			t.Errorf("OptionsKey does not render gpu.Config.%s", typ.Field(i).Name)
		}
	}
}
