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
	transport  string
	reportJSON bool
}

func newConcatCmd() *command {
	fs := newFlagSet("concat")
	var p concatParams
	fs.BoolVar(&p.bounds, "bounds", false, "print achieved C1/C2 vs lower bounds for both operations")
	fs.BoolVar(&p.optimality, "optimality", false, "sweep the special range and show the last-round policies")
	fs.BoolVar(&p.baselines, "baselines", false, "compare the circulant algorithm with the baselines")
	fs.IntVar(&p.b, cli.FlagBytes, 4, "block size in bytes")
	fs.StringVar(&p.transport, cli.FlagTransport, "chan", "simulator transport backend: chan or slot")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "concat", summary: "Sections 2/4 concat study: bounds, special range, baselines", fs: fs}
	c.exec = func(args []string, w io.Writer) error {
		if err := fs.Parse(args); err != nil {
			return err
		}
		return runConcatStudy(w, p)
	}
	return c
}

func runConcatStudy(w io.Writer, p concatParams) error {
	backend, err := mpsim.ParseBackend(p.transport)
	if err != nil {
		return err
	}
	rp := newReporter(w, p.reportJSON)
	switch {
	case p.bounds:
		err = runBounds(rp, backend, p.b)
	case p.optimality:
		err = runOptimality(rp, p.b)
	case p.baselines:
		err = runBaselines(rp, backend, p.b)
	default:
		return fmt.Errorf("pick one of -bounds, -optimality or -baselines")
	}
	if err != nil {
		return err
	}
	return rp.flush()
}

func runBounds(rp *reporter, backend mpsim.Backend, b int) error {
	w := rp.text()
	ns := []int{4, 5, 8, 9, 16, 17, 27, 32, 64, 100}
	ks := []int{1, 2, 3, 4}
	rows, err := sweep.ConcatBoundsTable(backend, ns, ks, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "concatenation: achieved vs lower bounds (b = %d)\n\n%s\n", b, sweep.RenderBounds(rows))
	irows, err := sweep.IndexBoundsTable(backend, []int{8, 9, 16, 27, 64}, []int{1, 2, 3}, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "index: achieved vs lower bounds (b = %d)\n\n%s", b, sweep.RenderBounds(irows))
	rp.add(sweep.BoundsReport("concat-bounds", rows))
	rp.add(sweep.BoundsReport("index-bounds", irows))
	return nil
}

func runOptimality(rp *reporter, b int) error {
	w := rp.text()
	fmt.Fprintf(w, "special range sweep (b >= 3, k >= 3, (k+1)^d - k < n < (k+1)^d), b = %d\n\n", b)
	fmt.Fprintf(w, "%5s %3s %13s | %19s | %19s\n", "n", "k", "optimal exists",
		"min-rounds C1/C2", "min-volume C1/C2")
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
				return err
			}
			c1v, c2v, err := collective.ConcatCost(n, b, k, partition.MinVolume)
			if err != nil {
				return err
			}
			c1LB := lowerbound.ConcatRounds(n, k)
			c2LB := lowerbound.ConcatVolume(n, b, k)
			fmt.Fprintf(w, "%5d %3d %13v | %6d/%d (LB %d/%d) | %6d/%d (LB %d/%d)\n",
				n, k, exists, c1r, c2r, c1LB, c2LB, c1v, c2v, c1LB, c2LB)
			t.AddRow(fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(exists),
				fmt.Sprint(c1r), fmt.Sprint(c2r), fmt.Sprint(c1v), fmt.Sprint(c2v),
				fmt.Sprint(c1LB), fmt.Sprint(c2LB))
		}
	}
	rp.add(t)
	return nil
}

func runBaselines(rp *reporter, backend mpsim.Backend, b int) error {
	w := rp.text()
	fmt.Fprintf(w, "concatenation algorithms, one port, b = %d, transport = %s\n\n", b, backend)
	fmt.Fprintf(w, "%5s %-20s %8s %10s %12s %12s\n", "n", "algorithm", "C1", "C2", "C1 bound", "C2 bound")
	t := &cli.Table{Name: "concat-baselines", Columns: []string{"n", "algorithm", "c1", "c2", "c1_bound", "c2_bound"}}
	for _, n := range []int{8, 16, 32, 64} {
		for _, alg := range []collective.ConcatAlgorithm{
			collective.ConcatCirculant, collective.ConcatFolklore,
			collective.ConcatRing, collective.ConcatRecursiveDoubling,
		} {
			e := mpsim.MustNew(n, mpsim.WithTransport(backend))
			spec := collective.Spec{Op: collective.OpConcat, BlockLen: b, Concat: collective.ConcatOptions{Algorithm: alg}}
			_, res, err := exercise(e, spec, collective.Labels)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%5d %-20s %8d %10d %12d %12d\n", n, alg, res.C1, res.C2,
				lowerbound.ConcatRounds(n, 1), lowerbound.ConcatVolume(n, b, 1))
			t.AddRow(fmt.Sprint(n), fmt.Sprint(alg), fmt.Sprint(res.C1), fmt.Sprint(res.C2),
				fmt.Sprint(lowerbound.ConcatRounds(n, 1)), fmt.Sprint(lowerbound.ConcatVolume(n, b, 1)))
		}
	}
	rp.add(t)
	return nil
}
