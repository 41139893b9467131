package sweep

import (
	"fmt"

	"bruck/internal/cli"
)

// SeriesReport tabulates aligned series: the x-axis ("bytes", or
// "radix" for Fig 6) first, then one model-seconds column per series.
// Positions missing from a ragged series are empty cells.
func SeriesReport(name string, series []Series, xAxis string) *cli.Table {
	t := &cli.Table{Name: name, Columns: []string{xAxis}}
	for _, s := range series {
		t.Columns = append(t.Columns, s.Name)
	}
	if len(series) == 0 {
		return t
	}
	for i := range series[0].Points {
		x := series[0].Points[i].BlockLen
		if xAxis == "radix" {
			x = series[0].Points[i].R
		}
		row := []string{fmt.Sprint(x)}
		for _, s := range series {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%.9g", s.Points[i].Seconds))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// BoundsReport tabulates achieved-vs-lower-bound rows, sorted by n and
// k.
func BoundsReport(name string, rows []BoundsRow) *cli.Table {
	t := &cli.Table{Name: name, Columns: []string{
		"operation", "n", "k", "b", "c1", "c1_lb", "c2", "c2_lb", "c1_optimal", "c2_optimal",
	}}
	for _, r := range sortedBounds(rows) {
		t.AddRow(r.Op, fmt.Sprint(r.N), fmt.Sprint(r.K), fmt.Sprint(r.B),
			fmt.Sprint(r.C1), fmt.Sprint(r.C1LB), fmt.Sprint(r.C2), fmt.Sprint(r.C2LB),
			fmt.Sprint(r.C1Optimal), fmt.Sprint(r.C2Optimal))
	}
	return t
}

// TopoReport tabulates the flat-vs-hierarchical study: one row per
// configuration, and per (n, ratio) pair the block size from which the
// flat arm wins (-1: hierarchical wins across the whole sweep).
func TopoReport(rows []TopoRow) []*cli.Table {
	st := &cli.Table{Name: "topology-crossover", Columns: []string{
		"op", "n", "k", "b", "shape", "ratio", "flat_c1", "flat_c2", "flat_r", "hier_c1", "hier_c2", "flat_us", "hier_us", "winner",
	}}
	for _, r := range rows {
		winner := "flat"
		if r.HierWins {
			winner = "hier"
		}
		st.AddRow(r.Op, fmt.Sprint(r.N), fmt.Sprint(r.K), fmt.Sprint(r.B), r.Shape,
			fmt.Sprintf("%g", r.Ratio), fmt.Sprint(r.FlatC1), fmt.Sprint(r.FlatC2),
			fmt.Sprint(r.FlatR), fmt.Sprint(r.HierC1), fmt.Sprint(r.HierC2),
			fmt.Sprintf("%.1f", r.FlatSec*1e6), fmt.Sprintf("%.1f", r.HierSec*1e6), winner)
	}
	ct := &cli.Table{Name: "topology-crossover-summary", Columns: []string{"n", "ratio", "flat_from_b"}}
	for _, c := range TopoCrossovers(rows) {
		ct.AddRow(fmt.Sprint(c.N), fmt.Sprintf("%g", c.Ratio), fmt.Sprint(c.FlatFromB))
	}
	return []*cli.Table{st, ct}
}
