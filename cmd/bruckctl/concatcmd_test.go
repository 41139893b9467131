package main

import (
	"slices"
	"testing"
)

func TestRunBoundsAllOptimal(t *testing.T) {
	tables, err := runBounds(4)
	if err != nil {
		t.Fatal(err)
	}
	// Every concat row at b=4 must be optimal in both measures.
	concat := find(t, tables, "concat-bounds")
	if slices.Contains(column(t, concat, "c1_optimal"), "false") || slices.Contains(column(t, concat, "c2_optimal"), "false") {
		t.Errorf("non-optimal concat row: %v", concat.Rows)
	}
	if len(concat.Rows) == 0 || len(find(t, tables, "index-bounds").Rows) == 0 {
		t.Error("empty bounds table")
	}
}

func TestRunOptimalitySpecialRange(t *testing.T) {
	tables, err := runOptimality(4)
	if err != nil {
		t.Fatal(err)
	}
	// n=63, k=3, b=4 is a genuine failure point: no optimal single-round
	// partition.
	found := false
	for _, row := range find(t, tables, "special-range").Rows {
		if row[0] == "63" && row[1] == "3" && row[2] == "false" {
			found = true
		}
	}
	if !found {
		t.Error("n=63 failure point missing from sweep")
	}
}

func TestRunBaselines(t *testing.T) {
	tables, err := runBaselines(4)
	if err != nil {
		t.Fatal(err)
	}
	algs := column(t, find(t, tables, "concat-baselines"), "algorithm")
	for _, want := range []string{"circulant", "folklore", "ring", "recursive-doubling"} {
		if !slices.Contains(algs, want) {
			t.Errorf("baselines lack %q", want)
		}
	}
}
