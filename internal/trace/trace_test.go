// Package trace_test is an external test package (rather than the usual
// in-package one) because the figure tests draw their configurations
// with package collective, which itself imports trace — in-package tests
// would form an import cycle.
package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"bruck/internal/collective"
	"bruck/internal/mpsim"
	. "bruck/internal/trace"
)

// snapshots draws the configurations of the plan s compiles on n ranks.
func snapshots(t *testing.T, n int, s collective.Spec) []Step {
	t.Helper()
	pl, err := collective.Compile(mpsim.MustNew(n), mpsim.WorldGroup(n), s)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := pl.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

// index is the figures' index plan at radix r.
func index(r int) collective.Spec {
	return collective.Spec{Op: collective.OpIndex, BlockLen: 2, Index: collective.IndexOptions{Radix: r}}
}

// rows returns processor p's cells of a configuration as text.
func rows(c *Config, p int) string {
	var cells []string
	for _, l := range c.Cells[p] {
		cells = append(cells, l.String())
	}
	return strings.Join(cells, " ")
}

// TestFig1Configurations pins the initial and final configurations of
// Figure 1 for n = 5: p2's input rows before round 0, its output rows
// after the last round.
func TestFig1Configurations(t *testing.T) {
	steps := snapshots(t, 5, index(2))
	if got := rows(steps[0].Config, 2)[:14]; got != "20 21 22 23 24" {
		t.Errorf("initial p2 input = %q", got)
	}
	last := steps[len(steps)-1].Config
	if got := rows(last, 2); !strings.HasSuffix(got, "02 12 22 32 42") {
		t.Errorf("final p2 = %q, want its output to end 02 12 22 32 42", got)
	}
}

// TestFig2PhasesN5R5: the r = n index of Figure 2 (n = 5) is n-1
// rounds straight from the input to the output, with no scratch.
func TestFig2PhasesN5R5(t *testing.T) {
	steps := snapshots(t, 5, index(5))
	if got := len(steps); got != 5 {
		t.Fatalf("%d snapshots, want 5", got)
	}
	for i, st := range steps {
		if !strings.HasSuffix(st.Caption, "(in 0-4, out 5-9)") {
			t.Errorf("snapshot %d caption %q has a scratch region", i, st.Caption)
		}
	}
	// Round z delivers block i+z+1 of rank i: after round 0 p1 holds
	// its own block and p0's.
	if got := rows(steps[1].Config, 1)[15:]; got != "01 11 -- -- --" {
		t.Errorf("after round 0, p1 output = %q", got)
	}
}

// TestFig3Radix2N5: the r = 2 index of Figure 3 (n = 5) runs one round
// per digit (distances 1, 2, 4) through one scratch region.
func TestFig3Radix2N5(t *testing.T) {
	steps := snapshots(t, 5, index(2))
	if got := len(steps); got != 4 {
		t.Fatalf("%d snapshots, want 4", got)
	}
	for i, want := range []string{"before round 0", "after round 0", "after round 1", "after round 2"} {
		if got := steps[i].Caption; got != want+" (in 0-4, scratch 5-9, out 10-14)" {
			t.Errorf("snapshot %d caption %q", i, got)
		}
	}
	if got := rows(steps[3].Config, 4)[30:]; got != "04 14 24 34 44" {
		t.Errorf("final p4 output = %q", got)
	}
}

// TestFig9ConcatN5: the one-port concatenation of Figure 9 gathers into
// the output in d = 3 rounds (1, 2, then the last block).
func TestFig9ConcatN5(t *testing.T) {
	steps := snapshots(t, 5, collective.Spec{Op: collective.OpConcat, BlockLen: 1})
	want := []string{
		"00 00 -- -- -- --",
		"00 00 10 -- -- --",
		"00 00 10 20 30 --",
		"00 00 10 20 30 40",
	}
	if len(steps) != len(want) {
		t.Fatalf("%d snapshots, want %d", len(steps), len(want))
	}
	for i, st := range steps {
		if got := rows(st.Config, 0); got != want[i] {
			t.Errorf("%s: p0 = %q, want %q", st.Caption, got, want[i])
		}
	}
}

// matchesDefinition asserts the figures' walk draws C1+1 configurations
// of the plan s compiles on n ranks, and that the output rows of the last
// one hold def(i, j) in slot j of rank i.
func matchesDefinition(t *testing.T, n int, s collective.Spec, def func(i, j int) Label) {
	t.Helper()
	pl, err := collective.Compile(mpsim.MustNew(n), mpsim.WorldGroup(n), s)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := pl.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != pl.Rounds()+1 {
		t.Fatalf("%d snapshots of %d rounds", len(steps), pl.Rounds())
	}
	last := steps[len(steps)-1].Config
	for i, col := range last.Cells {
		for j, got := range col[len(col)-n:] {
			if got != def(i, j) {
				t.Fatalf("rank %d output slot %d holds %v, want %v", i, j, got, def(i, j))
			}
		}
	}
}

// TestTraceMatchesRealIndex: for n in 1..12 and every radix, the drawn
// index ends with block i of rank j in slot j of rank i.
func TestTraceMatchesRealIndex(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for r := 2; r <= max(n, 2); r++ {
			t.Run(fmt.Sprintf("n%d-r%d", n, r), func(t *testing.T) {
				matchesDefinition(t, n, index(r), func(i, j int) Label { return Label{Proc: j, Block: i} })
			})
		}
	}
}

// TestTraceConcatAllSizes: for n in 1..12 the drawn concatenation ends
// with every rank holding the blocks in rank order.
func TestTraceConcatAllSizes(t *testing.T) {
	for n := 1; n <= 12; n++ {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			matchesDefinition(t, n, collective.Spec{Op: collective.OpConcat, BlockLen: 1},
				func(_, j int) Label { return Label{Proc: j, Block: 0} })
		})
	}
}

// TestConfigString: a configuration's text is its table — one column
// per processor, one row per memory slot.
func TestConfigString(t *testing.T) {
	c := NewConfig(3, 3)
	for i := range c.Cells {
		for j := range c.Cells[i] {
			c.Cells[i][j] = Label{Proc: i, Block: j}
		}
	}
	tb := c.Table("initial")
	if got := strings.Join(tb.Columns, " "); got != "slot p0 p1 p2" {
		t.Errorf("columns = %q", got)
	}
	if len(tb.Rows) != 3 || strings.Join(tb.Rows[2], " ") != "2 02 12 22" {
		t.Errorf("rows = %v", tb.Rows)
	}
	if empty := NewConfig(0, 0).Table("empty"); len(empty.Rows) != 0 || len(empty.Columns) != 1 {
		t.Errorf("empty config: %+v", empty)
	}
}

func TestLabelString(t *testing.T) {
	for _, c := range []struct {
		l    Label
		want string
	}{
		{Label{1, 4}, "14"},
		{Label{1, 10}, "1.10"},
		{Label{11, 0}, "11.0"},
		{Empty, "--"},
		{Mixed, "**"},
	} {
		if got := c.l.String(); got != c.want {
			t.Errorf("%+v = %q, want %q", c.l, got, c.want)
		}
	}
}
