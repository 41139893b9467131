// The index subcommand regenerates the SP-1 implementation study of
// Section 3.5: the measured-time figures of the index algorithm (the
// old cmd/indexbench).
//
//	bruckctl index -fig 4        # time vs message size, power-of-two radices
//	bruckctl index -fig 5        # r=2 vs r=n vs tuned radix, with crossover
//	bruckctl index -fig 6        # time vs radix for several message sizes
//	bruckctl index -tune         # optimal radix per message size
//
// Schedules are measured on the simulator (per-round message sizes of
// the real algorithm); times are evaluated under the linear model
// T = C1*beta + C2*tau with the SP-1 parameters (beta ~ 29us,
// tau ~ 0.118us/byte). Use -csv for CSV output or -report-json for the
// JSON report.
package main

import (
	"fmt"
	"io"

	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/sweep"
)

type indexParams struct {
	fig        int
	tune       bool
	n          int
	k          int
	csv        bool
	reportJSON bool
	transport  string
}

func newIndexCmd() *command {
	fs := newFlagSet("index")
	var p indexParams
	fs.IntVar(&p.fig, cli.FlagFig, 0, "figure to regenerate (4, 5, 6)")
	fs.BoolVar(&p.tune, "tune", false, "print the optimal radix per message size")
	fs.IntVar(&p.n, cli.FlagN, 64, "number of processors")
	fs.IntVar(&p.k, cli.FlagPorts, 1, "ports per processor (figures use the one-port model)")
	fs.BoolVar(&p.csv, cli.FlagCSV, false, "emit CSV instead of an aligned table")
	fs.StringVar(&p.transport, cli.FlagTransport, "chan", "simulator transport backend: chan or slot")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "index", summary: "Section 3.5 index study: figures 4-6, radix tuning", fs: fs}
	c.exec = func(args []string, w io.Writer) error {
		if err := fs.Parse(args); err != nil {
			return err
		}
		return runIndexStudy(w, p)
	}
	return c
}

func runIndexStudy(w io.Writer, p indexParams) error {
	backend, err := mpsim.ParseBackend(p.transport)
	if err != nil {
		return err
	}
	if _, err := cli.PickFormat(p.csv, p.reportJSON); err != nil {
		return err
	}
	rp := newReporter(w, p.reportJSON)
	h := sweep.NewHarness(costmodel.SP1)
	h.Backend = backend
	switch {
	case p.fig == 4:
		err = runFig4(rp, h, p.n, p.csv)
	case p.fig == 5:
		err = runFig5(rp, h, p.n, p.csv)
	case p.fig == 6:
		err = runFig6(rp, h, p.n, p.csv)
	case p.fig != 0:
		return fmt.Errorf("unknown index figure %d (have 4, 5, 6)", p.fig)
	case p.tune:
		err = runTune(rp, p.n, p.k)
	default:
		return fmt.Errorf("pick one of -fig 4|5|6 or -tune")
	}
	if err != nil {
		return err
	}
	return rp.flush()
}

func runFig4(rp *reporter, h *sweep.Harness, n int, csv bool) error {
	w := rp.text()
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	series, err := h.Fig4(n, sweep.PowersOfTwoUpTo(n), sizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4: index time vs message size, n = %d, k = 1, SP-1 linear model\n\n", n)
	emitSeries(w, series, "bytes", csv)
	best := sweep.BestRadixPerSize(series)
	fmt.Fprintf(w, "\nbest radix per size: %v\n", best)
	rp.add(sweep.SeriesReport("fig4", series, "bytes"))
	kv := cli.KV("fig4-summary")
	kv.Add("n", n)
	kv.Add("best_radix_per_size", best)
	rp.add(kv)
	return nil
}

func runFig5(rp *reporter, h *sweep.Harness, n int, csv bool) error {
	w := rp.text()
	sizes := make([]int, 0, 1024)
	for b := 1; b <= 1024; b++ {
		sizes = append(sizes, b)
	}
	series, err := h.Fig5(n, sizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5: r=2 vs r=n=%d vs tuned power-of-two radix, SP-1 linear model\n\n", n)
	if csv {
		fmt.Fprint(w, sweep.CSV(series, "bytes"))
	} else {
		// Print a decimated view plus the crossover.
		var view []sweep.Series
		for _, s := range series {
			dec := sweep.Series{Name: s.Name}
			for i := 0; i < len(s.Points); i += 64 {
				dec.Points = append(dec.Points, s.Points[i])
			}
			view = append(view, dec)
		}
		fmt.Fprint(w, sweep.RenderSeries(view))
	}
	cross, err := sweep.Crossover(series[0], series[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nbreak-even point of r=2 vs r=n: %d bytes (paper reports 100-200 bytes)\n", cross)
	rp.add(sweep.SeriesReport("fig5", series, "bytes"))
	kv := cli.KV("fig5-summary")
	kv.Add("n", n)
	kv.Add("crossover_bytes", cross)
	rp.add(kv)
	return nil
}

func runFig6(rp *reporter, h *sweep.Harness, n int, csv bool) error {
	w := rp.text()
	radices := make([]int, 0, n-1)
	for r := 2; r <= n; r++ {
		radices = append(radices, r)
	}
	series, err := h.Fig6(n, []int{32, 64, 128}, radices)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 6: index time vs radix for 32, 64, 128-byte messages, n = %d, SP-1 linear model\n\n", n)
	if csv {
		fmt.Fprint(w, sweep.CSV(series, "radix"))
	} else {
		fmt.Fprint(w, sweep.RenderSeriesByR(series))
	}
	rp.add(sweep.SeriesReport("fig6", series, "radix"))
	return nil
}

func runTune(rp *reporter, n, k int) error {
	w := rp.text()
	fmt.Fprintf(w, "optimal radix per message size, n = %d, k = %d, SP-1 linear model\n\n", n, k)
	fmt.Fprintf(w, "%10s %12s %12s %16s %10s %12s\n", "bytes", "r (any)", "r (pow2)", "mixed vector", "C1", "C2")
	t := &cli.Table{Name: "tune", Columns: []string{"bytes", "r_any", "r_pow2", "mixed_vector", "c1", "c2"}}
	for b := 1; b <= 8192; b *= 2 {
		rAll := collective.OptimalRadix(costmodel.SP1, n, b, k, false)
		rP2 := collective.OptimalRadix(costmodel.SP1, n, b, k, true)
		mixed := collective.OptimalRadixSchedule(costmodel.SP1, n, b, k)
		c1, c2 := collective.IndexMixedCost(n, b, mixed, k)
		fmt.Fprintf(w, "%10d %12d %12d %16v %10d %12d\n", b, rAll, rP2, mixed, c1, c2)
		t.AddRow(fmt.Sprint(b), fmt.Sprint(rAll), fmt.Sprint(rP2), fmt.Sprint(mixed), fmt.Sprint(c1), fmt.Sprint(c2))
	}
	rp.add(t)
	return nil
}

func emitSeries(w io.Writer, series []sweep.Series, xAxis string, csv bool) {
	if csv {
		fmt.Fprint(w, sweep.CSV(series, xAxis))
	} else {
		fmt.Fprint(w, sweep.RenderSeries(series))
	}
}
