// Package trace_test is an external test package (rather than the usual
// in-package one) because the cross-validation tests import package
// collective, which itself imports trace for the canonical schedule
// model — in-package tests would form an import cycle. Everything the
// tests touch is exported, so the dot import keeps the test bodies
// unchanged.
package trace_test

import (
	"strings"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/mpsim"
	. "bruck/internal/trace"
)

// TestFig1Configurations pins the initial and final configurations of
// Figure 1 for n = 5.
func TestFig1Configurations(t *testing.T) {
	initial := InitialIndex(5)
	final := FinalIndex(5)
	// Column p2 initially holds 20 21 22 23 24.
	for j := 0; j < 5; j++ {
		if got := initial.Cells[2][j]; got != (Label{Proc: 2, Block: j}) {
			t.Errorf("initial p2 slot %d = %v", j, got)
		}
	}
	// Column p2 finally holds 02 12 22 32 42.
	for j := 0; j < 5; j++ {
		if got := final.Cells[2][j]; got != (Label{Proc: j, Block: 2}) {
			t.Errorf("final p2 slot %d = %v", j, got)
		}
	}
	if initial.Equal(final) {
		t.Error("initial and final configurations must differ")
	}
}

// TestFig2PhasesN5R5: the r = n trace of Figure 2 (n = 5): Phase 1,
// then 4 communication steps, then Phase 3 reaching the transpose.
func TestFig2PhasesN5R5(t *testing.T) {
	tr, err := TraceIndex(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots: initial, phase1, 4 steps (subphase 0, z=1..4), phase3.
	if got := len(tr.Steps); got != 7 {
		t.Fatalf("trace has %d snapshots, want 7", got)
	}
	// After Phase 1, processor i's slot j holds block (j+i) mod 5 of
	// processor i (upward rotation by i).
	p1 := tr.Steps[1].Config
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := Label{Proc: i, Block: (j + i) % 5}
			if got := p1.Cells[i][j]; got != want {
				t.Errorf("after Phase 1: p%d slot %d = %v, want %v", i, j, got, want)
			}
		}
	}
	if !tr.Final().Equal(FinalIndex(5)) {
		t.Errorf("final trace configuration is not the index result:\n%v", tr.Final().Cells)
	}
}

// TestFig3Radix2N5: the r = 2 trace of Figure 3 (n = 5): subphases for
// digits 1, 2, 4 with one step each, 3 communication steps total.
func TestFig3Radix2N5(t *testing.T) {
	tr, err := TraceIndex(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots: initial, phase1, 3 steps (w = 3 subphases, 1 step
	// each), phase3 = 6.
	if got := len(tr.Steps); got != 6 {
		t.Fatalf("trace has %d snapshots, want 6", got)
	}
	if !tr.Final().Equal(FinalIndex(5)) {
		t.Errorf("final configuration wrong:\n%v", tr.Final().Cells)
	}
	// The three communication captions name rotations by 1, 2, 4.
	for i, wantDist := range []string{"rotate 1 right", "rotate 2 right", "rotate 4 right"} {
		if !strings.Contains(tr.Steps[2+i].Caption, wantDist) {
			t.Errorf("step %d caption %q does not mention %q", i, tr.Steps[2+i].Caption, wantDist)
		}
	}
}

// TestTraceMatchesRealIndex: the label simulator's final configuration
// equals the transpose for every (n, r), cross-checking it against the
// byte-level algorithm.
func TestTraceMatchesRealIndex(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for r := 2; r <= n; r++ {
			tr, err := TraceIndex(n, r)
			if err != nil {
				t.Fatalf("n=%d r=%d: %v", n, r, err)
			}
			if !tr.Final().Equal(FinalIndex(n)) {
				t.Errorf("n=%d r=%d: trace does not reach the index result", n, r)
			}
		}
	}
	// And the byte-level algorithm agrees on one configuration, with
	// blocks encoding their labels.
	const n, r = 5, 2
	in, _ := buffers.New(n, n, 2)
	out, _ := buffers.New(n, n, 2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			copy(in.Block(i, j), []byte{byte(i), byte(j)})
		}
	}
	e := mpsim.MustNew(n)
	pl, err := collective.Compile(e, mpsim.WorldGroup(n), collective.Spec{Op: collective.OpIndex, BlockLen: 2, Index: collective.IndexOptions{Radix: r}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Execute(in, out); err != nil {
		t.Fatal(err)
	}
	tr, _ := TraceIndex(n, r)
	final := tr.Final()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := Label{Proc: int(out.Block(i, j)[0]), Block: int(out.Block(i, j)[1])}
			if final.Cells[i][j] != want {
				t.Errorf("trace[%d][%d] = %v, byte-level algorithm has %v", i, j, final.Cells[i][j], want)
			}
		}
	}
}

// TestFig9ConcatN5: the one-port concatenation trace of Figure 9.
func TestFig9ConcatN5(t *testing.T) {
	tr, err := TraceConcat(5)
	if err != nil {
		t.Fatal(err)
	}
	// d = 3: initial, 2 doubling rounds, last round, final shift = 5.
	if got := len(tr.Steps); got != 5 {
		t.Fatalf("trace has %d snapshots, want 5", got)
	}
	// After round 0, processor 0 holds blocks 0, 1.
	r0 := tr.Steps[1].Config
	if r0.Cells[0][0] != (Label{0, 0}) || r0.Cells[0][1] != (Label{1, 0}) {
		t.Errorf("after round 0, p0 = %v %v", r0.Cells[0][0], r0.Cells[0][1])
	}
	// After round 1, processor 0 holds blocks 0..3.
	r1 := tr.Steps[2].Config
	for q := 0; q < 4; q++ {
		if r1.Cells[0][q] != (Label{q, 0}) {
			t.Errorf("after round 1, p0 slot %d = %v", q, r1.Cells[0][q])
		}
	}
	// After the last round everyone has all 5 (in successor order);
	// p3's buffer starts with its own block.
	r2 := tr.Steps[3].Config
	for q := 0; q < 5; q++ {
		if r2.Cells[3][q] != (Label{(3 + q) % 5, 0}) {
			t.Errorf("after last round, p3 slot %d = %v", q, r2.Cells[3][q])
		}
	}
	// Final: rank order on every processor.
	final := tr.Final()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if final.Cells[i][j] != (Label{j, 0}) {
				t.Errorf("final p%d slot %d = %v, want %d0", i, j, final.Cells[i][j], j)
			}
		}
	}
}

// TestTraceConcatAllSizes: every processor ends with all blocks in rank
// order for 1 <= n <= 16.
func TestTraceConcatAllSizes(t *testing.T) {
	for n := 1; n <= 16; n++ {
		tr, err := TraceConcat(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		final := tr.Final()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if final.Cells[i][j] != (Label{j, 0}) {
					t.Errorf("n=%d: final p%d slot %d = %v", n, i, j, final.Cells[i][j])
				}
			}
		}
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := TraceIndex(0, 2); err == nil {
		t.Error("TraceIndex(0, 2) accepted")
	}
	if _, err := TraceIndex(5, 1); err == nil {
		t.Error("radix 1 accepted")
	}
	if _, err := TraceIndex(5, 6); err == nil {
		t.Error("radix > n accepted")
	}
	if _, err := TraceConcat(0); err == nil {
		t.Error("TraceConcat(0) accepted")
	}
}

// TestConfigString: a configuration's text is its table — one column
// per processor, one row per memory slot.
func TestConfigString(t *testing.T) {
	tb := InitialIndex(3).Table("initial")
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
	if (Label{1, 4}).String() != "14" {
		t.Errorf("Label{1,4} = %q", Label{1, 4}.String())
	}
	if Empty.String() != "--" {
		t.Errorf("Empty = %q", Empty.String())
	}
}
