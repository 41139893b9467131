// The concat subcommand exercises the concatenation results of
// Sections 2 and 4: achieved-versus-lower-bound tables, the
// special-range policy trade-offs, and a baseline comparison (the old
// cmd/concatbench).
//
//	bruckctl concat -bounds            # achieved vs Section 2 lower bounds
//	bruckctl concat -optimality        # Theorem 4.3 across the special range
//	bruckctl concat -baselines         # circulant vs folklore/ring/recdbl
package main

import (
	"fmt"
	"io"

	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
	"bruck/internal/sweep"
)

type concatParams struct {
	bounds     bool
	optimality bool
	baselines  bool
	b          int
	reportJSON bool
}

func newConcatCmd() *command {
	fs := newFlagSet("concat")
	var p concatParams
	fs.BoolVar(&p.bounds, "bounds", false, "print achieved C1/C2 vs lower bounds for both operations")
	fs.BoolVar(&p.optimality, "optimality", false, "sweep the special range and show the last-round policies")
	fs.BoolVar(&p.baselines, "baselines", false, "compare the circulant algorithm with the baselines")
	fs.IntVar(&p.b, cli.FlagBytes, 4, "block size in bytes")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "concat", summary: "Sections 2/4 concat study: bounds, special range, baselines", fs: fs}
	c.exec = func(_ []string, w io.Writer) error {
		return runConcatStudy(w, p)
	}
	return c
}

func runConcatStudy(w io.Writer, p concatParams) error {
	rp := reporter{w, false, p.reportJSON}
	switch {
	case p.bounds:
		return rp.flush(runBounds(p.b))
	case p.optimality:
		return rp.flush(runOptimality(p.b))
	case p.baselines:
		return rp.flush(runBaselines(p.b))
	}
	return fmt.Errorf("pick one of -bounds, -optimality or -baselines")
}

// runBounds tabulates achieved C1/C2 against the Section 2 lower bounds,
// for the concatenation and for the index.
func runBounds(b int) ([]*cli.Table, error) {
	rows, err := sweep.ConcatBoundsTable([]int{4, 5, 8, 9, 16, 17, 27, 32, 64, 100}, []int{1, 2, 3, 4}, b)
	if err != nil {
		return nil, err
	}
	irows, err := sweep.IndexBoundsTable([]int{8, 9, 16, 27, 64}, []int{1, 2, 3}, b)
	if err != nil {
		return nil, err
	}
	return []*cli.Table{sweep.BoundsReport("concat-bounds", rows), sweep.BoundsReport("index-bounds", irows)}, nil
}

// runOptimality sweeps the special range (b >= 3, k >= 3,
// (k+1)^d - k < n < (k+1)^d): whether an optimal single-round partition
// exists, and C1/C2 under the min-rounds and the min-volume policy.
func runOptimality(b int) ([]*cli.Table, error) {
	t := &cli.Table{Name: "special-range", Columns: []string{
		"n", "k", "optimal_exists", "min_rounds_c1", "min_rounds_c2", "min_volume_c1", "min_volume_c2", "c1_lb", "c2_lb",
	}}
	for k := 3; k <= 4; k++ {
		for n := k + 2; n <= 130; n++ {
			if !partition.InSpecialRange(n, b, k) {
				continue
			}
			d := intmath.CeilLog(k+1, n)
			n1 := intmath.Pow(k+1, d-1)
			exists := partition.OptimalExists(b, n-n1, n1, k)
			c1r, c2r, err := collective.ConcatCost(n, b, k, partition.MinRounds)
			if err != nil {
				return nil, err
			}
			c1v, c2v, err := collective.ConcatCost(n, b, k, partition.MinVolume)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(exists),
				fmt.Sprint(c1r), fmt.Sprint(c2r), fmt.Sprint(c1v), fmt.Sprint(c2v),
				fmt.Sprint(lowerbound.ConcatRounds(n, k)), fmt.Sprint(lowerbound.ConcatVolume(n, b, k)))
		}
	}
	return []*cli.Table{t}, nil
}

// runBaselines compares the one-port concatenation algorithms: the
// compiled plan's C1/C2 against the bounds.
func runBaselines(b int) ([]*cli.Table, error) {
	t := &cli.Table{Name: "concat-baselines", Columns: []string{"n", "algorithm", "c1", "c2", "c1_bound", "c2_bound"}}
	for _, n := range []int{8, 16, 32, 64} {
		for _, alg := range []collective.ConcatAlgorithm{
			collective.ConcatCirculant, collective.ConcatFolklore,
			collective.ConcatRing, collective.ConcatRecursiveDoubling,
		} {
			spec := collective.Spec{Op: collective.OpConcat, BlockLen: b, Concat: collective.ConcatOptions{Algorithm: alg}}
			pl, err := collective.Compile(mpsim.MustNew(n), mpsim.WorldGroup(n), spec)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprint(n), fmt.Sprint(alg), fmt.Sprint(pl.Rounds()), fmt.Sprint(pl.PredictedC2()),
				fmt.Sprint(lowerbound.ConcatRounds(n, 1)), fmt.Sprint(lowerbound.ConcatVolume(n, b, 1)))
		}
	}
	return []*cli.Table{t}, nil
}
