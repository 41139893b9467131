package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
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
