// The figures subcommand draws the structural figures and tables of
// the paper as tables: the processor-memory configurations of Figures
// 1, 2, 3 (index) and 9 (concatenation), the spanning trees of Figures
// 7 and 8 (concatenation; one edge per row) and the table-partitioning
// example of Table 1 (the grid and its areas).
//
//	bruckctl figures -fig 1|2|3|7|8|9 [-n N] [-radix R]
//	bruckctl figures -fig 9 -transport slot   # run the plan on the slot backend
//	bruckctl figures -table 1
//	bruckctl figures -all
//
// A configuration figure is drawn from the compiled plan itself:
// Plan.Snapshots walks its step program (the walk Plan.Check proves it
// with) and draws every rank's in, scratch and out regions before round
// 0 and after each round, one table per snapshot, columns processors,
// rows blocks. The plan also runs once on the selected -transport
// through the oracle (the figure's verified_transport row).
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
	fs.StringVar(&p.transport, cli.FlagTransport, "chan", "simulator transport backend the figure's plan runs on: chan or slot")
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
	// snapshots compiles the plan the figure depicts, runs it on the
	// selected transport and returns the configurations it passes through.
	snapshots := func(s collective.Spec) ([]trace.Step, error) {
		e, err := mpsim.New(n, mpsim.WithTransport(backend))
		if err != nil {
			return nil, err
		}
		pl, err := collective.Compile(e, mpsim.WorldGroup(n), s)
		if err != nil {
			return nil, err
		}
		if err := verifyOnBackend(pl, backend); err != nil {
			return nil, err
		}
		kv.Add("verified_transport", backend)
		return pl.Snapshots()
	}
	draw := func(steps []trace.Step, err error) ([]*cli.Table, error) {
		if err != nil {
			return nil, err
		}
		for _, st := range steps {
			tables = append(tables, st.Config.Table(name+" "+st.Caption))
		}
		return tables, nil
	}
	index := collective.Spec{Op: collective.OpIndex, BlockLen: 2}
	switch fig {
	case 1:
		// The input regions before the first round, the output regions
		// after the last: the first and last n rows of the index plan.
		steps, err := snapshots(index)
		if err != nil {
			return nil, err
		}
		first, last := steps[0].Config.Cells, steps[len(steps)-1].Config.Cells
		before, after := &trace.Config{}, &trace.Config{}
		for i := range first {
			before.Cells = append(before.Cells, first[i][:n])
			after.Cells = append(after.Cells, last[i][len(last[i])-n:])
		}
		return append(tables, before.Table(name+" before"), after.Table(name+" after")), nil
	case 2, 3:
		if fig == 2 {
			r = n // the index at r = n
		} else {
			kv.Add("radix", r)
		}
		index.Index.Radix = r
		return draw(snapshots(index))
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
		return draw(snapshots(collective.Spec{Op: collective.OpConcat, BlockLen: 1}))
	}
	return nil, fmt.Errorf("unknown figure %d (have 1, 2, 3, 7, 8, 9)", fig)
}

// verifyOnBackend runs the plan the figure depicts once on its engine,
// built with the selected transport, through the oracle: every output
// block against the operation's definition.
func verifyOnBackend(pl *collective.Plan, backend mpsim.Backend) error {
	if _, err := collective.Exercise(pl, collective.Labels); err != nil {
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
