package main

import (
	"strconv"
	"strings"
	"testing"

	"bruck/internal/costmodel"
	"bruck/internal/sweep"
)

func TestRunFig4(t *testing.T) {
	tables, err := runFig4(sweep.NewHarness(costmodel.SP1), 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(find(t, tables, "fig4").Columns, ","); got != "bytes,r=2,r=4,r=8,r=16" {
		t.Errorf("fig4 columns = %q", got)
	}
	if got := value(t, tables, "fig4-summary", "best_radix_per_size"); !strings.HasPrefix(got, "[2 ") || !strings.HasSuffix(got, " 16]") {
		t.Errorf("best radix per size = %q, want 2 at the small end and 16 at the large", got)
	}
}

// TestRunFig4CSV: -csv is CSV — a table-name line, a header and records,
// and nothing else.
func TestRunFig4CSV(t *testing.T) {
	var sb strings.Builder
	if err := runIndexStudy(&sb, indexParams{fig: 4, n: 8, k: 1, csv: true}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	if lines[0] != "fig4:" || lines[1] != "bytes,r=2,r=4,r=8" || !strings.HasPrefix(lines[2], "2,") {
		t.Errorf("CSV starts %q", lines[:3])
	}
}

func TestRunFig5ReportsCrossoverInPaperRange(t *testing.T) {
	tables, err := runFig5(sweep.NewHarness(costmodel.SP1), 64)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := strconv.Atoi(value(t, tables, "fig5-summary", "crossover_bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if cross < 100 || cross > 200 {
		t.Errorf("crossover %d outside the paper's 100-200 byte window", cross)
	}
	// One row set for every format: each of the 1024 sizes.
	if got := len(find(t, tables, "fig5").Rows); got != 1024 {
		t.Errorf("fig5 has %d rows, want 1024", got)
	}
}

func TestRunFig6(t *testing.T) {
	tables, err := runFig6(sweep.NewHarness(costmodel.SP1), 16)
	if err != nil {
		t.Fatal(err)
	}
	fig6 := find(t, tables, "fig6")
	if got := strings.Join(fig6.Columns, ","); got != "radix,32 bytes,64 bytes,128 bytes" || len(fig6.Rows) != 15 {
		t.Errorf("fig6 columns %q, %d rows", got, len(fig6.Rows))
	}
}

// TestIndexRejectsBadSizes: -n and -k below 1 fail before any study
// runs (they used to panic in a make, loop forever in the model, or
// print an empty table).
func TestIndexRejectsBadSizes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "6", "-n", "0"}, "bad -n 0: want a processor count >= 1"},
		{[]string{"-fig", "4", "-n", "-1"}, "bad -n -1: want a processor count >= 1"},
		{[]string{"-tune", "-n", "0"}, "bad -n 0: want a processor count >= 1"},
		{[]string{"-tune", "-k", "0"}, "bad -k 0: want a port count >= 1"},
	} {
		var sb strings.Builder
		if err := dispatch(append([]string{"index"}, c.args...), &sb); err == nil || err.Error() != c.want {
			t.Errorf("index %v: error %v, want %q", c.args, err, c.want)
		}
	}
}

func TestRunTune(t *testing.T) {
	tables, err := runTune(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	tune := find(t, tables, "tune")
	if sizes := column(t, tune, "bytes"); len(sizes) != 14 || sizes[13] != "8192" {
		t.Errorf("tune sizes = %v", sizes)
	}
	if mixed := column(t, tune, "mixed_vector"); mixed[0] != "[2 2 2 2]" {
		t.Errorf("mixed vector at 1 byte = %q, want the round-minimal [2 2 2 2]", mixed[0])
	}
}
