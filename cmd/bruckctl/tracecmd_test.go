package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"bruck/internal/golden"
)

// traceRun is one trace invocation on a fresh command: args are the
// mode word and its flags.
func traceRun(args []string, out io.Writer) error { return newTraceCmd().exec(args, out) }

// TestRecordVerifyRoundTrip: record into a temp dir, then verify
// against it on chan, slot and chaos — all must pass.
func TestRecordVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := traceRun([]string{"record", "-dir", dir}, &out); err != nil {
		t.Fatalf("record: %v\n%s", err, out.String())
	}
	// Each row names the artifact it wrote.
	if !strings.Contains(out.String(), "recorded") || !strings.Contains(out.String(), dir) {
		t.Fatalf("record printed nothing useful:\n%s", out.String())
	}

	for _, args := range [][]string{
		{"verify", "-dir", dir},
		{"verify", "-dir", dir, "-transport", "slot"},
		{"verify", "-dir", dir, "-transport", "chaos", "-chaos-inner", "slot", "-chaos-seed", "7", "-stragglers", "0,2"},
	} {
		out.Reset()
		if err := traceRun(args, &out); err != nil {
			t.Errorf("%v: %v\n%s", args, err, out.String())
		}
		if strings.Contains(out.String(), "FAIL") {
			t.Errorf("%v reported failures:\n%s", args, out.String())
		}
	}
}

// TestVerifyFailsOnDrift: record the corpus, change one line of one
// artifact, and verify must fail with exactly one FAIL row, naming that
// case and that line.
func TestVerifyFailsOnDrift(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := traceRun([]string{"record", "-dir", dir}, &out); err != nil {
		t.Fatalf("record: %v\n%s", err, out.String())
	}
	c := golden.Corpus()[3]
	path := golden.Path(dir, c)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	lines[2] += " drift"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = traceRun([]string{"verify", "-dir", dir}, &out)
	if want := fmt.Sprintf("1 of %d cases failed", len(golden.Corpus())); err == nil || err.Error() != want {
		t.Errorf("verify after drift: %v, want %q", err, want)
	}
	var fails [][]string
	for _, row := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(row); len(f) > 2 && f[1] == "FAIL" {
			fails = append(fails, f)
		}
	}
	if len(fails) != 1 || fails[0][0] != c.Name || fails[0][2] != "line" || fails[0][3] != "3:" {
		t.Errorf("FAIL rows %q, want one naming %s at line 3", fails, c.Name)
	}
}

// TestBadFlags covers the flag validation paths.
func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"verify", "-transport", "bogus"},
		{"verify", "-transport", "chan", "-stragglers", "1"},
		{"verify", "-transport", "chaos", "-chaos-inner", "chaos"},
		{"verify", "-case", "no-such-case-name"},
	} {
		if err := traceRun(args, &out); err == nil {
			t.Errorf("traceRun(%v) succeeded, want error", args)
		}
	}
}
