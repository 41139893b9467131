// The index subcommand regenerates the SP-1 implementation study of
// Section 3.5: the measured-time figures of the index algorithm (the
// old cmd/indexbench).
//
//	bruckctl index -fig 4        # time vs message size, power-of-two radices
//	bruckctl index -fig 5        # r=2 vs r=n vs tuned radix, with crossover
//	bruckctl index -fig 6        # time vs radix for several message sizes
//	bruckctl index -tune         # optimal radix per message size
//
// Schedule measures are those of the compiled plans; times are
// evaluated under the linear model T = C1*beta + C2*tau with the SP-1
// parameters (beta ~ 29us, tau ~ 0.118us/byte), in seconds. Use -csv
// for CSV output or -report-json for the JSON report.
package main

import (
	"fmt"
	"io"

	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/sweep"
)

type indexParams struct {
	fig        int
	tune       bool
	n          int
	k          int
	csv        bool
	reportJSON bool
}

func newIndexCmd() *command {
	fs := newFlagSet("index")
	var p indexParams
	fs.IntVar(&p.fig, cli.FlagFig, 0, "figure to regenerate (4, 5, 6)")
	fs.BoolVar(&p.tune, "tune", false, "print the optimal radix per message size")
	fs.IntVar(&p.n, cli.FlagN, 64, "number of processors")
	fs.IntVar(&p.k, cli.FlagPorts, 1, "ports per processor (figures use the one-port model)")
	fs.BoolVar(&p.csv, cli.FlagCSV, false, "emit CSV instead of an aligned table")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "index", summary: "Section 3.5 index study: figures 4-6, radix tuning", fs: fs}
	c.exec = func(_ []string, w io.Writer) error {
		return runIndexStudy(w, p)
	}
	return c
}

func runIndexStudy(w io.Writer, p indexParams) error {
	rp, h := reporter{w, p.csv, p.reportJSON}, sweep.NewHarness(costmodel.SP1)
	switch {
	case p.n < 1:
		return fmt.Errorf("bad -n %d: want a processor count >= 1", p.n)
	case p.k < 1:
		return fmt.Errorf("bad -k %d: want a port count >= 1", p.k)
	case p.fig == 4:
		return rp.flush(runFig4(h, p.n))
	case p.fig == 5:
		return rp.flush(runFig5(h, p.n))
	case p.fig == 6:
		return rp.flush(runFig6(h, p.n))
	case p.fig != 0:
		return fmt.Errorf("unknown index figure %d (have 4, 5, 6)", p.fig)
	case p.tune:
		return rp.flush(runTune(p.n, p.k))
	}
	return fmt.Errorf("pick one of -fig 4|5|6 or -tune")
}

// runFig4 is Figure 4: index time vs message size for the power-of-two
// radices, k = 1, with the best radix per size.
func runFig4(h *sweep.Harness, n int) ([]*cli.Table, error) {
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	series, err := h.Fig4(n, sweep.PowersOfTwoUpTo(n), sizes)
	if err != nil {
		return nil, err
	}
	kv := cli.KV("fig4-summary")
	kv.Add("n", n)
	kv.Add("best_radix_per_size", sweep.BestRadixPerSize(series))
	return []*cli.Table{sweep.SeriesReport("fig4", series, "bytes"), kv}, nil
}

// runFig5 is Figure 5: r = 2 vs r = n vs the tuned power-of-two radix at
// every message size up to 1024 bytes, and the break-even point of the
// first two (the paper reports 100-200 bytes).
func runFig5(h *sweep.Harness, n int) ([]*cli.Table, error) {
	sizes := make([]int, 0, 1024)
	for b := 1; b <= 1024; b++ {
		sizes = append(sizes, b)
	}
	series, err := h.Fig5(n, sizes)
	if err != nil {
		return nil, err
	}
	cross, err := sweep.Crossover(series[0], series[1])
	if err != nil {
		return nil, err
	}
	kv := cli.KV("fig5-summary")
	kv.Add("n", n)
	kv.Add("crossover_bytes", cross)
	return []*cli.Table{sweep.SeriesReport("fig5", series, "bytes"), kv}, nil
}

// runFig6 is Figure 6: index time vs radix for 32, 64 and 128-byte
// messages.
func runFig6(h *sweep.Harness, n int) ([]*cli.Table, error) {
	radices := make([]int, 0, n-1)
	for r := 2; r <= n; r++ {
		radices = append(radices, r)
	}
	series, err := h.Fig6(n, []int{32, 64, 128}, radices)
	if err != nil {
		return nil, err
	}
	return []*cli.Table{sweep.SeriesReport("fig6", series, "radix")}, nil
}

// runTune tabulates the optimal radix per message size: over every
// radix, over the powers of two, and as a mixed-radix vector with its
// measures.
func runTune(n, k int) ([]*cli.Table, error) {
	t := &cli.Table{Name: "tune", Columns: []string{"bytes", "r_any", "r_pow2", "mixed_vector", "c1", "c2"}}
	for b := 1; b <= 8192; b *= 2 {
		rAll := collective.OptimalRadix(costmodel.SP1, n, b, k, false)
		rP2 := collective.OptimalRadix(costmodel.SP1, n, b, k, true)
		mixed := collective.OptimalRadixSchedule(costmodel.SP1, n, b, k)
		c1, c2 := collective.IndexMixedCost(n, b, mixed, k)
		t.AddRow(fmt.Sprint(b), fmt.Sprint(rAll), fmt.Sprint(rP2), fmt.Sprint(mixed), fmt.Sprint(c1), fmt.Sprint(c2))
	}
	return []*cli.Table{t}, nil
}
