// Package trace draws the processor-memory configuration figures of
// the paper (Figures 1, 2, 3 and 9) as tables. It simulates the index and
// concatenation algorithms at label granularity: each data block is
// represented by the label "ij" (block j of processor i) instead of
// payload bytes, exactly as the figures draw them.
//
// The label simulator mirrors the schedules of package collective; the
// tests cross-validate its final configurations against the real
// byte-level algorithms running on the mpsim engine.
package trace

import (
	"fmt"

	"bruck/internal/blocks"
	"bruck/internal/cli"
	"bruck/internal/intmath"
)

// Label identifies one data block: block Block of processor Proc, drawn
// as "ij" in the paper's figures.
type Label struct {
	Proc, Block int
}

// Empty is the sentinel for a memory slot that holds no block yet
// (drawn blank in Figure 9).
var Empty = Label{Proc: -1, Block: -1}

func (l Label) String() string {
	if l == Empty {
		return "--"
	}
	return fmt.Sprintf("%d%d", l.Proc, l.Block)
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

// InitialIndex returns the left side of Figure 1: processor i holds
// blocks B[i,0..n-1] in order.
func InitialIndex(n int) *Config {
	c := NewConfig(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.Cells[i][j] = Label{Proc: i, Block: j}
		}
	}
	return c
}

// FinalIndex returns the right side of Figure 1: processor i holds
// blocks B[0,i] .. B[n-1,i].
func FinalIndex(n int) *Config {
	c := NewConfig(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.Cells[i][j] = Label{Proc: j, Block: i}
		}
	}
	return c
}

// Clone deep-copies the configuration.
func (c *Config) Clone() *Config {
	n := len(c.Cells)
	out := &Config{Cells: make([][]Label, n)}
	for i := range c.Cells {
		out.Cells[i] = append([]Label(nil), c.Cells[i]...)
	}
	return out
}

// Equal reports whether two configurations are identical.
func (c *Config) Equal(o *Config) bool {
	if len(c.Cells) != len(o.Cells) {
		return false
	}
	for i := range c.Cells {
		if len(c.Cells[i]) != len(o.Cells[i]) {
			return false
		}
		for j := range c.Cells[i] {
			if c.Cells[i][j] != o.Cells[i][j] {
				return false
			}
		}
	}
	return true
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

// IndexTrace is the sequence of configurations the index algorithm
// passes through (Figures 2 and 3).
type IndexTrace struct {
	N, R  int
	Steps []Step
}

// TraceIndex simulates the one-port radix-r index algorithm on labels
// and captures a snapshot before Phase 1, after Phase 1, after every
// communication step of Phase 2, and after Phase 3.
func TraceIndex(n, r int) (*IndexTrace, error) {
	if n < 1 {
		return nil, fmt.Errorf("trace: n = %d, want >= 1", n)
	}
	if n > 1 && (r < 2 || r > n) {
		return nil, fmt.Errorf("trace: radix %d out of range [2, %d]", r, n)
	}
	tr := &IndexTrace{N: n, R: r}
	cfg := InitialIndex(n)
	tr.capture("initial configuration", cfg)

	// Phase 1: processor i rotates its blocks i steps upwards.
	for i := 0; i < n; i++ {
		rotateUp(cfg.Cells[i], i)
	}
	tr.capture("after Phase 1 (local rotation)", cfg)

	// Phase 2: w subphases of up to r-1 steps each.
	if n > 1 {
		w := blocks.NumDigits(n, r)
		dist := 1
		for pos := 0; pos < w; pos++ {
			h := r
			if pos == w-1 {
				h = intmath.CeilDiv(n, dist)
			}
			for z := 1; z < h; z++ {
				ids := blocks.SelectDigit(n, r, pos, z)
				next := cfg.Clone()
				for i := 0; i < n; i++ {
					dst := intmath.Mod(i+z*dist, n)
					for _, id := range ids {
						next.Cells[dst][id] = cfg.Cells[i][id]
					}
				}
				cfg = next
				tr.capture(fmt.Sprintf("after subphase %d, step %d (rotate %d right)", pos, z, z*dist), cfg)
			}
			dist *= r
		}
	}

	// Phase 3: final local rearrangement (Appendix A lines 21-23).
	final := NewConfig(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			final.Cells[i][j] = cfg.Cells[i][intmath.Mod(i-j, n)]
		}
	}
	tr.capture("after Phase 3 (local rearrangement)", final)
	return tr, nil
}

func (tr *IndexTrace) capture(caption string, cfg *Config) {
	tr.Steps = append(tr.Steps, Step{Caption: caption, Config: cfg.Clone()})
}

// Final returns the last captured configuration.
func (tr *IndexTrace) Final() *Config {
	return tr.Steps[len(tr.Steps)-1].Config
}

// rotateUp rotates labels steps positions upward cyclically.
func rotateUp(col []Label, steps int) {
	n := len(col)
	if n == 0 {
		return
	}
	s := intmath.Mod(steps, n)
	if s == 0 {
		return
	}
	tmp := make([]Label, n)
	copy(tmp, col[s:])
	copy(tmp[n-s:], col[:s])
	copy(col, tmp)
}
