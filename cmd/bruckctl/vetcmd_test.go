package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/golden"
)

// TestVetGoldenCorpus: every corpus plan passes static verification.
// The negative controls are TestCheckPerturbations' rows.
func TestVetGoldenCorpus(t *testing.T) {
	var out bytes.Buffer
	if err := vetRun("", false, &out); err != nil {
		t.Fatalf("vet: %v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), " ok"); got != 22 {
		t.Fatalf("vet printed %d ok rows, want 22:\n%s", got, out.String())
	}
}

// TestVetReportJSON: the JSON report parses and covers every case.
func TestVetReportJSON(t *testing.T) {
	var out bytes.Buffer
	if err := vetRun("index-bruck", true, &out); err != nil {
		t.Fatalf("vet -report-json: %v\n%s", err, out.String())
	}
	var tables []struct {
		Name string     `json:"name"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &tables); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if len(tables) != 1 || tables[0].Name != "vet" {
		t.Fatalf("report shape: %+v", tables)
	}
	for _, row := range tables[0].Rows {
		if row[1] != "ok" {
			t.Errorf("case %s status %q, want ok", row[0], row[1])
		}
	}
}

// TestVetBadInputs covers the error path.
func TestVetBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := vetRun("no-such-case", false, &out); err == nil || err.Error() != `no cases match -case "no-such-case"` {
		t.Errorf("vet with an unmatched -case filter: %v", err)
	}
}

// TestVetClockFindings is the negative control of vet's clock check: on
// a symmetric corpus plan a critical path off Time either way fails, on
// a skewed one (a hierarchical plan's idle ranks) one below Time passes
// and one above fails; the walk's own clocks pass both.
func TestVetClockFindings(t *testing.T) {
	plan := func(name string) (*collective.Plan, float64) {
		for _, c := range golden.Corpus() {
			if c.Name == name {
				pl, err := golden.Compile(c)
				if err != nil {
					t.Fatal(err)
				}
				return pl, pl.Time(costmodel.SP1)
			}
		}
		t.Fatalf("no corpus case %s", name)
		return nil, 0
	}
	sym, symTime := plan("index-bruck-n12-k3")
	skew, skewTime := plan("hier-index-4x4")
	if !symmetric(sym) || symmetric(skew) {
		t.Fatalf("symmetric: %v for the Bruck index, %v for the hierarchical one", symmetric(sym), symmetric(skew))
	}
	for _, c := range []struct {
		name string
		pl   *collective.Plan
		cp   float64
		want string
	}{
		{"symmetric, the walk", sym, sym.CriticalPath(costmodel.SP1), ""},
		{"symmetric, below Time", sym, symTime * 0.9, "is not Time"},
		{"symmetric, above Time", sym, symTime * 1.1, "exceeds Time"},
		{"skewed, the walk", skew, skew.CriticalPath(costmodel.SP1), ""},
		{"skewed, below Time", skew, skewTime * 0.5, ""},
		{"skewed, above Time", skew, skewTime * 1.1, "exceeds Time"},
	} {
		got := clockFindings(c.pl, c.cp)
		if c.want == "" && got != nil || c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)) {
			t.Errorf("%s: findings %q, want one containing %q", c.name, got, c.want)
		}
	}
}
