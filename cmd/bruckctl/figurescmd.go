// The figures subcommand draws the structural figures and tables of
// the paper as tables (the old cmd/figures): the processor-memory
// configurations of Figures 1, 2 and 3 (index operation; one table per
// snapshot, columns are processors, rows memory slots), the spanning
// trees of Figures 7 and 8 (concatenation; one edge per row), the
// concatenation trace of Figure 9, and the table-partitioning example
// of Table 1 (the grid and its areas).
//
//	bruckctl figures -fig 1|2|3|7|8|9 [-n N] [-radix R]
//	bruckctl figures -fig 9 -transport slot   # verify the trace on the slot backend
//	bruckctl figures -table 1
//	bruckctl figures -all
//
// The -transport flag matches the other subcommands: figures 2, 3 and
// 9 depict algorithm executions, and their label traces are
// cross-checked against a byte-level run of the real schedule on the
// selected simulator backend (the figure's verified_transport row).
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
	c.exec = func(_ []string, w io.Writer) error {
		return runFiguresStudy(w, p)
	}
	return c
}

func runFiguresStudy(w io.Writer, p figuresParams) error {
	backend, err := mpsim.ParseBackend(p.transport)
	if err != nil {
		return err
	}
	rp := reporter{w, false, p.reportJSON}
	switch {
	case p.n < 1:
		return fmt.Errorf("bad -n %d: want a processor count >= 1", p.n)
	case p.all:
		var all []*cli.Table
		for _, f := range []int{1, 2, 3, 7, 8, 9} {
			tables, err := figTables(f, p.n, p.r, backend)
			if err != nil {
				return err
			}
			all = append(all, tables...)
		}
		tables, err := table1Tables()
		return rp.flush(append(all, tables...), err)
	case p.table == 1:
		return rp.flush(table1Tables())
	case p.table != 0:
		return fmt.Errorf("unknown table %d (have 1)", p.table)
	case p.fig == 0:
		return fmt.Errorf("pick one of -fig 1|2|3|7|8|9, -table 1 or -all")
	}
	return rp.flush(figTables(p.fig, p.n, p.r, backend))
}

// figTables draws one figure: a key/value table of its parameters, then
// its snapshots or edges.
func figTables(fig, n, r int, backend mpsim.Backend) ([]*cli.Table, error) {
	name := fmt.Sprintf("figure-%d", fig)
	kv := cli.KV(name)
	kv.Add("n", n)
	tables := []*cli.Table{kv}
	// snapshots appends one table per step of a trace, after verifying the
	// schedule it depicts on the real simulator.
	snapshots := func(steps []trace.Step, s collective.Spec) ([]*cli.Table, error) {
		if err := verifyOnBackend(n, backend, s); err != nil {
			return nil, err
		}
		kv.Add("verified_transport", backend)
		for _, st := range steps {
			tables = append(tables, st.Config.Table(name+" "+st.Caption))
		}
		return tables, nil
	}
	switch fig {
	case 1:
		return append(tables, trace.InitialIndex(n).Table(name+" before"), trace.FinalIndex(n).Table(name+" after")), nil
	case 2, 3:
		if fig == 2 {
			r = n // the three phases at r = n
		} else {
			kv.Add("radix", r)
		}
		tr, err := trace.TraceIndex(n, r)
		if err != nil {
			return nil, err
		}
		return snapshots(tr.Steps, collective.Spec{Op: collective.OpIndex, BlockLen: 2, Index: collective.IndexOptions{Radix: r}})
	case 7, 8:
		// Figure 7 is T0, figure 8 is T1: T0 with 1 added to every node
		// label, mod 9.
		const treeN, treeK = 9, 2
		root := fig - 7
		t0, err := circulant.BuildFullTree(treeN, treeK, 0, circulant.Positive)
		if err != nil {
			return nil, err
		}
		kv.Add("tree_n", treeN)
		kv.Add("tree_k", treeK)
		kv.Add("root", root)
		edges := &cli.Table{Name: name + "-edges", Columns: []string{"round", "parent", "child", "offset"}}
		t := t0.Translate(root)
		for round := 0; round < t.Rounds(); round++ {
			for _, e := range t.RoundEdges(round) {
				edges.AddRow(fmt.Sprint(round), fmt.Sprint(e.Parent), fmt.Sprint(e.Child), fmt.Sprint(intmath.Mod(e.Child-e.Parent, treeN)))
			}
		}
		return append(tables, edges), nil
	case 9:
		tr, err := trace.TraceConcat(n)
		if err != nil {
			return nil, err
		}
		return snapshots(tr.Steps, collective.Spec{Op: collective.OpConcat, BlockLen: 1})
	}
	return nil, fmt.Errorf("unknown figure %d (have 1, 2, 3, 7, 8, 9)", fig)
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

// table1Tables draws Table 1, the table partitioning for n1 = 3, n2 = 7,
// b = 3 bytes, k = 3 ports: the grid (rows are bytes, columns the n2 yet
// unspanned nodes, cells the area number) and the areas.
func table1Tables() ([]*cli.Table, error) {
	const b, n2, n1, k = 3, 7, 3, 3
	plan, err := partition.Solve(b, n2, n1, k, partition.PreferOptimal)
	if err != nil {
		return nil, err
	}
	kv := cli.KV("table-1")
	kv.Add("n1", n1)
	kv.Add("n2", n2)
	kv.Add("b", b)
	kv.Add("k", k)
	grid := &cli.Table{Name: "table-1-grid", Columns: []string{"byte"}, Rows: make([][]string, b)}
	for c := 0; c < n2; c++ {
		grid.Columns = append(grid.Columns, fmt.Sprintf("p%d", n1+c))
	}
	for row := range grid.Rows {
		grid.Rows[row] = make([]string, 1+n2)
		grid.Rows[row][0] = fmt.Sprint(row)
	}
	areas := &cli.Table{Name: "table-1-areas", Columns: []string{"area", "entries", "left", "right", "span", "offset"}}
	for _, round := range plan.Rounds {
		for ai, area := range round {
			label := fmt.Sprintf("A%d", ai+1)
			for _, run := range area.Runs {
				for row := run.Row0; row < run.Row0+run.NRows; row++ {
					grid.Rows[row][1+run.Col] = label
				}
			}
			areas.AddRow(label, fmt.Sprint(area.Size), fmt.Sprint(area.Left), fmt.Sprint(area.Right()), fmt.Sprint(area.Span()), fmt.Sprint(n1+area.Left))
		}
	}
	return []*cli.Table{kv, grid, areas}, nil
}
