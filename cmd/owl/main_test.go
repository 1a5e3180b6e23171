package main

import (
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDetect(t *testing.T) {
	if err := run([]string{"-program", "dummy", "-fixed-runs", "5", "-random-runs", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDetectJSON(t *testing.T) {
	if err := run([]string{"-program", "dummy", "-fixed-runs", "5", "-random-runs", "5", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -program accepted")
	}
	if err := run([]string{"-program", "nope"}); err == nil {
		t.Error("unknown program accepted")
	}
	if err := run([]string{"-program", "dummy", "-fixed-runs", "0"}); err == nil {
		t.Error("invalid run count accepted")
	}
}

func TestQuantifyFlag(t *testing.T) {
	if err := run([]string{"-program", "dummy", "-fixed-runs", "5", "-random-runs", "5", "-quantify", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineRoundtrip(t *testing.T) {
	base := t.TempDir() + "/base.json"
	if err := run([]string{"-program", "dummy", "-fixed-runs", "8", "-random-runs", "8", "-save-baseline", base}); err != nil {
		t.Fatal(err)
	}
	// Same program against its own baseline: no new leaks.
	if err := run([]string{"-program", "dummy", "-fixed-runs", "8", "-random-runs", "8", "-baseline", base}); err != nil {
		t.Fatalf("baseline comparison failed: %v", err)
	}
	// A different (leakier) program against the dummy baseline: new leaks.
	if err := run([]string{"-program", "libgpucrypto/rsa", "-fixed-runs", "8", "-random-runs", "8", "-baseline", base}); err == nil {
		t.Error("new leaks not flagged against a foreign baseline")
	}
	if err := run([]string{"-program", "dummy", "-fixed-runs", "8", "-random-runs", "8", "-baseline", "/nonexistent.json"}); err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestHTMLReportFlag(t *testing.T) {
	out := t.TempDir() + "/report.html"
	if err := run([]string{"-program", "dummy", "-fixed-runs", "5", "-random-runs", "5", "-html", out, "-quantify", "2"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Owl side-channel report") {
		t.Error("html report content missing")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if ferr != nil {
		t.Fatal(ferr)
	}
	return printed
}

// TestQuantifyHTMLMatchesStdout checks that -quantify with -html shows
// the same leakage estimates on the terminal and in the page.
func TestQuantifyHTMLMatchesStdout(t *testing.T) {
	const top = 3
	out := t.TempDir() + "/report.html"
	printed := captureStdout(t, func() error {
		return run([]string{"-program", "libgpucrypto/aes128", "-fixed-runs", "6", "-random-runs", "6",
			"-quantify", strconv.Itoa(top), "-html", out})
	})
	var terminal []string
	for _, m := range regexp.MustCompile(`JSD=([0-9.]+) bits`).FindAllStringSubmatch(printed, -1) {
		terminal = append(terminal, m[1])
	}
	if len(terminal) != top {
		t.Fatalf("printed %d JSD estimates, want %d:\n%s", len(terminal), top, printed)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	_, quant, ok := strings.Cut(string(data), "Leakage quantification")
	if !ok {
		t.Fatal("html report has no quantification table")
	}
	var page []string
	for _, m := range regexp.MustCompile(`<tr><td>[^<]*</td><td>[^<]*</td><td>([0-9.]+)</td>`).FindAllStringSubmatch(quant, len(terminal)) {
		page = append(page, m[1])
	}
	if !slices.Equal(terminal, page) {
		t.Errorf("JSD on the terminal %v, in the html page %v", terminal, page)
	}
}
