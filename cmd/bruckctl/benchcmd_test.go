package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bruck/internal/benchsnap"
)

// TestBenchWritesSchemaValidSnapshots runs the real suite at minimal
// settings and requires every written BENCH_<area>.json to round-trip
// through the benchsnap schema.
func TestBenchWritesSchemaValidSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full bench suite once")
	}
	dir := t.TempDir()
	var sb strings.Builder
	if err := runBench(&sb, benchParams{short: true, out: dir}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("wrote %d files, want 4 (collectives, hier, reduce, pipeline)", len(ents))
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		s, err := benchsnap.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if e.Name() != benchsnap.Filename(s.Area) {
			t.Errorf("file %s holds area %q", e.Name(), s.Area)
		}
		canon, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != string(data) {
			t.Errorf("%s is not in canonical form", e.Name())
		}
		// Identical snapshots compare clean; an injected over-threshold
		// ns regression must be caught (the compare gate's two acceptance
		// legs).
		if err := runCompare(&sb, compareParams{ns: 0.25, bytes: 0.10, allocs: 0.10},
			[]string{filepath.Join(dir, e.Name()), filepath.Join(dir, e.Name())}); err != nil {
			t.Errorf("self-compare of %s: %v", e.Name(), err)
		}
		bad := *s
		bad.Cases = append([]benchsnap.Case(nil), s.Cases...)
		bad.Cases[0].NsPerOp *= 10
		badData, err := bad.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		badPath := filepath.Join(dir, "bad-"+e.Name())
		if err := os.WriteFile(badPath, badData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runCompare(&sb, compareParams{ns: 0.25, bytes: 0.10, allocs: 0.10},
			[]string{filepath.Join(dir, e.Name()), badPath}); err == nil {
			t.Errorf("injected 10x ns/op regression in %s passed compare", e.Name())
		}
		if err := os.Remove(badPath); err != nil {
			t.Fatal(err)
		}
		if err := runCompare(&sb, compareParams{ns: 0.25, bytes: 0.10, allocs: 0.10, selftest: true},
			[]string{filepath.Join(dir, e.Name())}); err != nil {
			t.Errorf("compare -selftest on %s: %v", e.Name(), err)
		}
	}
}

// TestBenchFilters: -area and -case narrow the suite; impossible
// filters are hard errors, not silent empty snapshots. The -out
// directory need not exist: bench creates it before it measures.
func TestBenchFilters(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh", "nested")
	var sb strings.Builder
	if err := runBench(&sb, benchParams{short: true, out: dir, area: "reduce", caseFilter: "allreduce/auto/chan"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, benchsnap.Filename("reduce")))
	if err != nil {
		t.Fatal(err)
	}
	s, err := benchsnap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cases) != 1 || s.Cases[0].Name != "allreduce/auto/chan" {
		t.Fatalf("filtered snapshot = %+v", s.Cases)
	}
	if err := runBench(&sb, benchParams{short: true, out: dir, area: "nope"}); err == nil {
		t.Error("unknown area accepted")
	}
	if err := runBench(&sb, benchParams{short: true, out: dir, caseFilter: "no-such-case"}); err == nil {
		t.Error("filter matching nothing accepted")
	}
}

// TestCompareErrors: malformed inputs and bad usage fail loudly.
func TestCompareErrors(t *testing.T) {
	var sb strings.Builder
	th := compareParams{ns: 0.25, bytes: 0.10, allocs: 0.10}
	if err := runCompare(&sb, th, []string{"only-one.json"}); err == nil {
		t.Error("one positional accepted")
	}
	if err := runCompare(&sb, th, []string{"/no/such/old.json", "/no/such/new.json"}); err == nil {
		t.Error("missing files accepted")
	}
	junk := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(junk, []byte(`{"schema":"wrong/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCompare(&sb, th, []string{junk, junk}); err == nil {
		t.Error("wrong-schema snapshot accepted")
	}
}
