package main

import (
	"slices"
	"strings"
	"testing"

	"bruck/internal/cli"
)

func render(t *testing.T, fig int) []*cli.Table {
	t.Helper()
	tables, err := figTables(fig, 5, 2)
	if err != nil {
		t.Fatalf("figTables(%d, 5, 2): %v", fig, err)
	}
	return tables
}

func TestRenderFig1(t *testing.T) {
	tables := render(t, 1)
	before, after := find(t, tables, "figure-1 before"), find(t, tables, "figure-1 after")
	if got := strings.Join(column(t, before, "p4"), " "); got != "40 41 42 43 44" {
		t.Errorf("before: p4 holds %q", got)
	}
	if got := strings.Join(column(t, after, "p4"), " "); got != "04 14 24 34 44" {
		t.Errorf("after: p4 holds %q", got)
	}
}

// TestRenderFig2And3: figures 2 and 3 are the index plan's rounds —
// no rotation phases; the output rows of the last snapshot are the
// transpose.
func TestRenderFig2And3(t *testing.T) {
	// The figure itself used to be missing from the JSON report.
	fig2 := render(t, 2)
	if got := strings.Join(column(t, find(t, fig2, "figure-2 after round 3 (in 0-4, out 5-9)"), "p1"), " "); got != "10 11 12 13 14 01 11 21 31 41" {
		t.Errorf("figure 2 ends with p1 holding %q", got)
	}
	fig3 := render(t, 3)
	if got := value(t, fig3, "figure-3", "radix"); got != "2" {
		t.Errorf("figure 3 radix = %q", got)
	}
	// Round 0 lands p0's block 1 in p1's output and parks p0's block 3,
	// bound for p3 in two hops, in p1's scratch.
	for _, step := range []string{"before round 0", "after round 0", "after round 1", "after round 2"} {
		find(t, fig3, "figure-3 "+step+" (in 0-4, scratch 5-9, out 10-14)")
	}
	if got := strings.Join(column(t, find(t, fig3, "figure-3 after round 0 (in 0-4, scratch 5-9, out 10-14)"), "p1")[5:], " "); got != "-- -- -- 03 -- 01 11 -- -- --" {
		t.Errorf("figure 3 after round 0: p1 scratch and out hold %q", got)
	}
}

func TestRenderFig7And8(t *testing.T) {
	edges := func(tables []*cli.Table, name string) []string {
		var out []string
		for _, row := range find(t, tables, name).Rows {
			out = append(out, row[1]+" -> "+row[2]+" offset "+row[3])
		}
		return out
	}
	fig7 := render(t, 7)
	if got := value(t, fig7, "figure-7", "root"); got != "0" {
		t.Errorf("figure 7 root = %q", got)
	}
	for _, want := range []string{"0 -> 1 offset 1", "0 -> 2 offset 2", "1 -> 4 offset 3", "2 -> 8 offset 6"} {
		if !slices.Contains(edges(fig7, "figure-7-edges"), want) {
			t.Errorf("figure 7 lacks edge %q", want)
		}
	}
	fig8 := render(t, 8)
	if got := value(t, fig8, "figure-8", "root"); got != "1" {
		t.Errorf("figure 8 root = %q", got)
	}
	for _, want := range []string{"1 -> 2 offset 1", "3 -> 0 offset 6"} {
		if !slices.Contains(edges(fig8, "figure-8-edges"), want) {
			t.Errorf("figure 8 lacks edge %q", want)
		}
	}
}

func TestRenderFig9(t *testing.T) {
	tables := render(t, 9)
	// The doubling rounds gather into the output in rank order: after
	// round 0 p3 holds its own block and p4's.
	if got := strings.Join(column(t, find(t, tables, "figure-9 after round 0 (in 0-0, out 1-5)"), "p3"), " "); got != "30 -- -- -- 30 40" {
		t.Errorf("figure 9 after round 0: p3 holds %q", got)
	}
	if got := strings.Join(column(t, find(t, tables, "figure-9 after round 2 (in 0-0, out 1-5)"), "p3"), " "); got != "30 00 10 20 30 40" {
		t.Errorf("figure 9 ends with p3 holding %q", got)
	}
}

// TestFig1LabelsDistinct: from n = 11 a label has two-digit indices;
// every cell of the transposed configuration still reads differently.
// n = 12 is the first size where the bare "ij" form collides: block
// (1, 10) and block (11, 0) both printed "110".
func TestFig1LabelsDistinct(t *testing.T) {
	const n = 12
	tables, err := figTables(1, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, row := range find(t, tables, "figure-1 after").Rows {
		for _, cell := range row[1:] {
			if seen[cell] {
				t.Errorf("cell %q appears twice", cell)
			}
			seen[cell] = true
		}
	}
	if len(seen) != n*n {
		t.Errorf("%d distinct cells, want %d", len(seen), n*n)
	}
}

// TestFiguresRejectsBadSizes: -n below 1 fails before any figure is
// drawn (it used to panic in a make or print empty tables).
func TestFiguresRejectsBadSizes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "1", "-n", "-1"}, "bad -n -1: want a processor count >= 1"},
		{[]string{"-fig", "1", "-n", "0"}, "bad -n 0: want a processor count >= 1"},
		{[]string{"-all", "-n", "0"}, "bad -n 0: want a processor count >= 1"},
		// A radix fails where every plan's does: Spec validation.
		{[]string{"-fig", "3", "-radix", "1"}, "collective: index radix 1 out of range [2, 5]"},
		{[]string{"-fig", "3", "-radix", "9", "-n", "5"}, "collective: index radix 9 out of range [2, 5]"},
	} {
		var sb strings.Builder
		if err := dispatch(append([]string{"figures"}, c.args...), &sb); err == nil || err.Error() != c.want {
			t.Errorf("figures %v: error %v, want %q", c.args, err, c.want)
		}
	}
}

func TestRenderUnknownFigure(t *testing.T) {
	if _, err := figTables(42, 5, 2); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRenderTable1(t *testing.T) {
	tables, err := table1Tables()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(find(t, tables, "table-1-grid").Columns, " "); got != "byte p3 p4 p5 p6 p7 p8 p9" {
		t.Errorf("grid columns = %q", got)
	}
	// area, entries, left-right columns, span, offset.
	var areas []string
	for _, row := range find(t, tables, "table-1-areas").Rows {
		areas = append(areas, strings.Join(row, " "))
	}
	if want := []string{"A1 7 0 2 3 3", "A2 7 2 4 3 5", "A3 7 4 6 3 7"}; !slices.Equal(areas, want) {
		t.Errorf("areas = %q, want %q", areas, want)
	}
}
