// The figures subcommand renders the structural figures and tables of
// the paper as text (the old cmd/figures): the processor-memory
// configurations of Figures 1, 2 and 3 (index operation), the spanning
// trees of Figures 7 and 8 (concatenation), the concatenation trace of
// Figure 9, and the table-partitioning example of Table 1.
//
//	bruckctl figures -fig 1|2|3|7|8|9 [-n N] [-radix R]
//	bruckctl figures -fig 9 -transport slot   # verify the trace on the slot backend
//	bruckctl figures -table 1
//	bruckctl figures -all
//
// The -transport flag matches the other subcommands: figures 2, 3 and
// 9 depict algorithm executions, and their label traces are
// cross-checked against a byte-level run of the real schedule on the
// selected simulator backend before rendering.
package main

import (
	"fmt"
	"io"

	"bruck/internal/circulant"
	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
	"bruck/internal/trace"
)

type figuresParams struct {
	fig        int
	table      int
	all        bool
	n          int
	r          int
	transport  string
	reportJSON bool
}

func newFiguresCmd() *command {
	fs := newFlagSet("figures")
	var p figuresParams
	fs.IntVar(&p.fig, cli.FlagFig, 0, "figure number to render (1, 2, 3, 7, 8, 9)")
	fs.IntVar(&p.table, "table", 0, "table number to render (1)")
	fs.BoolVar(&p.all, "all", false, "render every figure and table")
	fs.IntVar(&p.n, cli.FlagN, 5, "number of processors for figures 1-3 and 9")
	fs.IntVar(&p.r, cli.FlagRadix, 2, "radix for figure 3")
	fs.IntVar(&p.r, cli.FlagRadixAlias, 2, "alias for -radix")
	fs.StringVar(&p.transport, cli.FlagTransport, "chan", "simulator transport backend for trace verification: chan or slot")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "figures", summary: "structural figures 1-3/7-9 and Table 1, byte-verified", fs: fs}
	c.exec = func(args []string, w io.Writer) error {
		if err := fs.Parse(args); err != nil {
			return err
		}
		return runFiguresStudy(w, p)
	}
	return c
}

func runFiguresStudy(w io.Writer, p figuresParams) error {
	backend, err := mpsim.ParseBackend(p.transport)
	if err != nil {
		return err
	}
	rp := newReporter(w, p.reportJSON)
	figKV := func(fig int) {
		kv := cli.KV(fmt.Sprintf("figure-%d", fig))
		kv.Add("n", p.n)
		if fig == 3 {
			kv.Add("radix", p.r)
		}
		if fig == 2 || fig == 3 || fig == 9 {
			kv.Add("verified_transport", backend)
		}
		rp.add(kv)
	}
	switch {
	case p.all:
		for _, f := range []int{1, 2, 3, 7, 8, 9} {
			if err := renderFig(rp.text(), f, p.n, p.r, backend); err != nil {
				return err
			}
			figKV(f)
		}
		if err := renderTable1(rp.text()); err != nil {
			return err
		}
		rp.add(cli.KV("table-1"))
	case p.table == 1:
		if err := renderTable1(rp.text()); err != nil {
			return err
		}
		rp.add(cli.KV("table-1"))
	case p.table != 0:
		return fmt.Errorf("unknown table %d (have 1)", p.table)
	case p.fig == 0:
		return fmt.Errorf("pick one of -fig 1|2|3|7|8|9, -table 1 or -all")
	default:
		if err := renderFig(rp.text(), p.fig, p.n, p.r, backend); err != nil {
			return err
		}
		figKV(p.fig)
	}
	return rp.flush()
}

func renderFig(w io.Writer, fig, n, r int, backend mpsim.Backend) error {
	switch fig {
	case 1:
		fmt.Fprintf(w, "=== Figure 1: memory-processor configurations before and after an index operation on %d processors ===\n\n", n)
		fmt.Fprintf(w, "before:\n%s\nafter:\n%s\n", trace.InitialIndex(n), trace.FinalIndex(n))
	case 2:
		fmt.Fprintf(w, "=== Figure 2: the three phases of the index operation on %d processors (r = n) ===\n\n", n)
		tr, err := trace.TraceIndex(n, n)
		if err != nil {
			return err
		}
		fmt.Fprint(w, tr)
		if err := verifyOnBackend(n, backend, collective.Spec{Op: collective.OpIndex, BlockLen: 2, Index: collective.IndexOptions{Radix: n}}); err != nil {
			return err
		}
		fmt.Fprintf(w, "(schedule verified byte-level on the %s transport)\n\n", backend)
	case 3:
		fmt.Fprintf(w, "=== Figure 3: the index algorithm with r = %d on %d processors (optimal C1) ===\n\n", r, n)
		tr, err := trace.TraceIndex(n, r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, tr)
		if err := verifyOnBackend(n, backend, collective.Spec{Op: collective.OpIndex, BlockLen: 2, Index: collective.IndexOptions{Radix: r}}); err != nil {
			return err
		}
		fmt.Fprintf(w, "(schedule verified byte-level on the %s transport)\n\n", backend)
	case 7, 8:
		root := fig - 7 // figure 7 is T0, figure 8 is T1
		fmt.Fprintf(w, "=== Figure %d: constructing the spanning tree rooted at node %d for n = 9 and k = 2 ===\n\n", fig, root)
		t0, err := circulant.BuildFullTree(9, 2, 0, circulant.Positive)
		if err != nil {
			return err
		}
		t := t0.Translate(root)
		for round := 0; round < t.Rounds(); round++ {
			fmt.Fprintf(w, "round %d edges:\n", round)
			for _, e := range t.RoundEdges(round) {
				fmt.Fprintf(w, "  %d -> %d  (offset %d)\n", e.Parent, e.Child, intmath.Mod(e.Child-e.Parent, 9))
			}
		}
		if root > 0 {
			fmt.Fprintf(w, "\n(T%d is T0 with %d added to every node label, mod 9.)\n", root, root)
		}
		fmt.Fprintln(w)
	case 9:
		fmt.Fprintf(w, "=== Figure 9: the one-port concatenation algorithm with %d processors ===\n\n", n)
		tr, err := trace.TraceConcat(n)
		if err != nil {
			return err
		}
		fmt.Fprint(w, tr)
		if err := verifyOnBackend(n, backend, collective.Spec{Op: collective.OpConcat, BlockLen: 1}); err != nil {
			return err
		}
		fmt.Fprintf(w, "(schedule verified byte-level on the %s transport)\n\n", backend)
	default:
		return fmt.Errorf("unknown figure %d (have 1, 2, 3, 7, 8, 9)", fig)
	}
	return nil
}

// verifyOnBackend runs the schedule the figure depicts on the real
// simulator with the selected transport, through the oracle: every
// output block against the operation's definition.
func verifyOnBackend(n int, backend mpsim.Backend, s collective.Spec) error {
	e, err := mpsim.New(n, mpsim.WithTransport(backend))
	if err != nil {
		return err
	}
	if _, _, err := exercise(e, s, collective.Labels); err != nil {
		return fmt.Errorf("verifying on %s transport: %w", backend, err)
	}
	return nil
}

func renderTable1(w io.Writer) error {
	fmt.Fprintln(w, "=== Table 1: table partitioning for n1 = 3, n2 = 7, b = 3 bytes, k = 3 ports ===")
	fmt.Fprintln(w)
	const b, n2, n1, k = 3, 7, 3, 3
	plan, err := partition.Solve(b, n2, n1, k, partition.PreferOptimal)
	if err != nil {
		return err
	}
	// Render the table grid: rows are bytes, columns are the n2 yet
	// unspanned nodes; cells show the area number.
	cell := make([][]int, b)
	for row := range cell {
		cell[row] = make([]int, n2)
	}
	for _, areas := range plan.Rounds {
		for ai, area := range areas {
			for _, run := range area.Runs {
				for row := run.Row0; row < run.Row0+run.NRows; row++ {
					cell[row][run.Col] = ai + 1
				}
			}
		}
	}
	fmt.Fprintf(w, "        ")
	for c := 0; c < n2; c++ {
		fmt.Fprintf(w, " p%-3d", n1+c)
	}
	fmt.Fprintln(w)
	for row := 0; row < b; row++ {
		fmt.Fprintf(w, "byte %d: ", row)
		for c := 0; c < n2; c++ {
			fmt.Fprintf(w, " A%-3d", cell[row][c])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	for _, areas := range plan.Rounds {
		for ai, area := range areas {
			fmt.Fprintf(w, "area A%d: %d entries, columns %d-%d (span %d), offset %d\n",
				ai+1, area.Size, area.Left, area.Right(), area.Span(), n1+area.Left)
		}
	}
	fmt.Fprintln(w)
	return nil
}
