// Package trace holds what the paper's figures are made of. The
// processor-memory configurations of Figures 1, 2, 3 and 9 are Configs
// of block Labels ("ij": block j of processor i), one Step per round;
// collective.Plan.Snapshots draws them from the symbolic walk
// Plan.Check proves a plan with, so a figure shows the program the
// engine runs.
package trace

import (
	"fmt"

	"bruck/internal/cli"
)

// Label identifies one data block: block Block of processor Proc, drawn
// as "ij" in the paper's figures.
type Label struct {
	Proc, Block int
}

// Empty is the sentinel for a memory slot that holds no block yet
// (drawn blank in Figure 9); Mixed marks one that holds anything but one
// whole block: part of a block, or a combination of several.
var (
	Empty = Label{Proc: -1, Block: -1}
	Mixed = Label{Proc: -2, Block: -2}
)

// String draws the label as the paper does, "ij", while both indices
// are single digits, and as "i.j" otherwise, so that block (1, 10) and
// block (11, 0) differ.
func (l Label) String() string {
	switch {
	case l == Empty:
		return "--"
	case l == Mixed:
		return "**"
	case l.Proc < 10 && l.Block < 10:
		return fmt.Sprintf("%d%d", l.Proc, l.Block)
	}
	return fmt.Sprintf("%d.%d", l.Proc, l.Block)
}

// Config is a processor-memory configuration: Cells[i][j] is the block
// label in memory slot j of processor i. Columns of the paper's figures
// are processors, rows are memory offsets.
type Config struct {
	Cells [][]Label
}

// NewConfig returns an n-processor, slots-deep configuration filled
// with Empty.
func NewConfig(n, slots int) *Config {
	c := &Config{Cells: make([][]Label, n)}
	for i := range c.Cells {
		c.Cells[i] = make([]Label, slots)
		for j := range c.Cells[i] {
			c.Cells[i][j] = Empty
		}
	}
	return c
}

// Table returns the configuration as the paper draws it: one column per
// processor, one row per memory slot.
func (c *Config) Table(name string) *cli.Table {
	t := &cli.Table{Name: name, Columns: []string{"slot"}}
	for i := range c.Cells {
		t.Columns = append(t.Columns, fmt.Sprintf("p%d", i))
	}
	for j := 0; len(c.Cells) > 0 && j < len(c.Cells[0]); j++ {
		row := []string{fmt.Sprint(j)}
		for i := range c.Cells {
			row = append(row, c.Cells[i][j].String())
		}
		t.AddRow(row...)
	}
	return t
}

// Step is one captured snapshot with a caption.
type Step struct {
	Caption string
	Config  *Config
}
