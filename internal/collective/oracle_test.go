package collective

import (
	"fmt"
	"testing"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// TestExerciseEveryOp runs every operation through the oracle — flat,
// ragged with zero-length blocks, rooted at several roots, segmented
// and hierarchical — and checks the measured C1/C2 against the
// compiled ones.
func TestExerciseEveryOp(t *testing.T) {
	sum, err := KernelOptions(buffers.Sum, buffers.Int32)
	if err != nil {
		t.Fatal(err)
	}
	bruckSum := sum
	bruckSum.Algorithm = ReduceBruck
	exercise := func(t *testing.T, e *mpsim.Engine, s Spec) {
		t.Helper()
		pl, err := Compile(e, mpsim.WorldGroup(e.N()), s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		res, err := Exercise(pl, Labels)
		if err != nil {
			t.Fatalf("%v %s: %v", pl.op, pl.alg, err)
		}
		if res.C1 != pl.Rounds() || res.C2 != pl.PredictedC2() {
			t.Errorf("%v %s: measured C1=%d C2=%d, compiled %d and %d", pl.op, pl.alg, res.C1, res.C2, pl.Rounds(), pl.PredictedC2())
		}
	}
	for _, n := range []int{1, 2, 5, 8, 16} {
		for k := 1; k <= 3 && k <= max(1, n-1); k++ {
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				e := mpsim.MustNew(n, mpsim.Ports(k))
				counts, vector := make([][]int, n), make([]int, n)
				for i := range counts {
					counts[i] = make([]int, n)
					for j := range counts[i] {
						counts[i][j] = (i*5 + j*3) % 4 // zero-length blocks included
					}
					vector[i] = (i * 3) % 5
				}
				matrix, err := blocks.Ragged(counts)
				if err != nil {
					t.Fatal(err)
				}
				column, err := blocks.RaggedVector(vector)
				if err != nil {
					t.Fatal(err)
				}
				specs := []Spec{
					{Op: OpIndex, BlockLen: 6},
					{Op: OpIndex, BlockLen: 6, Index: IndexOptions{Algorithm: IndexDirect}},
					{Op: OpIndex, BlockLen: 7, Index: IndexOptions{Radix: 2}, Segments: 3},
					{Op: OpConcat, BlockLen: 5},
					{Op: OpConcat, BlockLen: 5, Concat: ConcatOptions{Algorithm: ConcatRing}},
					{Op: OpIndexV, Layout: matrix},
					{Op: OpIndexV, Layout: matrix, Index: IndexOptions{Algorithm: IndexDirect}},
					{Op: OpConcatV, Layout: column},
					{Op: OpReduceScatter, BlockLen: 8, Reduce: sum},
					{Op: OpAllReduce, BlockLen: 8, Reduce: bruckSum},
				}
				for _, root := range []int{n - 1, n / 2, 0} {
					for op := OpBroadcast; op <= OpScatter; op++ {
						specs = append(specs, Spec{Op: op, BlockLen: 4, Root: root})
					}
				}
				for _, s := range specs {
					exercise(t, e, s)
				}
			})
		}
	}
	topo, err := costmodel.ParseTopology("4x4")
	if err != nil {
		t.Fatal(err)
	}
	e := mpsim.MustNew(16, mpsim.WithTopology(topo.GroupAssignment()))
	exercise(t, e, Spec{Op: OpIndex, BlockLen: 4, Hierarchical: true, Topology: topo})
	exercise(t, e, Spec{Op: OpAllReduce, BlockLen: 8, Reduce: sum, Hierarchical: true, Topology: topo})
}

// TestExerciseCatchesAShiftedSlot is the oracle's negative control: the
// last round of a radix-2 index receives one slot early — the same
// length, so the interpreter's length check cannot see it.
func TestExerciseCatchesAShiftedSlot(t *testing.T) {
	pl, err := Compile(mpsim.MustNew(8), mpsim.WorldGroup(8), Spec{Op: OpIndex, BlockLen: 4, Index: IndexOptions{Radix: 2}})
	if err != nil {
		t.Fatal(err)
	}
	steps := exchangeSteps(pl)
	x := &steps[len(steps)-1].xfers[0]
	shifted := x.recv[len(x.recv)-1]
	shifted.at.c++ // the run descends from output block me-4
	x.recv = []extent{shifted}
	_, err = Exercise(pl, Labels)
	if want := "index: rank 0 output block 1 differs from the operation's definition"; err == nil || err.Error() != want {
		t.Fatalf("Exercise = %v, want %q", err, want)
	}
}

// TestMemoryOfAnotherShapeIsRejected: a plan runs on memory of its own
// shape only — not on another operation's, nor on the root side of a
// primitive rooted elsewhere.
func TestMemoryOfAnotherShapeIsRejected(t *testing.T) {
	e, g := mpsim.MustNew(4), mpsim.WorldGroup(4)
	compile := func(s Spec) *Plan { return must(Compile(e, g, s)) }
	index, concat := compile(Spec{Op: OpIndex, BlockLen: 4}), compile(Spec{Op: OpConcat, BlockLen: 4})
	gather0, gather1 := compile(Spec{Op: OpGather, BlockLen: 4}), compile(Spec{Op: OpGather, BlockLen: 4, Root: 1})
	for _, c := range []struct {
		pl, from *Plan
		want     string
	}{
		{index, concat, "collective: index plan input is 4x1 blocks of 4 bytes, want 4x4 of 4"},
		{gather1, gather0, "collective: memory was not allocated for the shape of this gather plan"},
		{gather0, index, "collective: gather buffer is 4x4 blocks of 4 bytes, want 4x1 of 4"},
	} {
		if _, err := c.pl.Run(must(c.from.Alloc())); err == nil || err.Error() != c.want {
			t.Errorf("%v plan on %v memory: Run = %v, want %q", c.pl.op, c.from.op, err, c.want)
		}
	}
}

// TestParseSpecRoundTrip: ParseSpec inverts Op.String and the three
// algorithm String methods for every value, the names Plan.Algorithm
// prints beside them, and the tools' spellings.
func TestParseSpecRoundTrip(t *testing.T) {
	for op := OpIndex; op <= OpScatter; op++ {
		s, err := ParseSpec(op.String(), "")
		if err != nil || s.Op.String() != op.String() || (!op.layout() && s.Op != op) {
			t.Errorf("ParseSpec(%q, \"\") = %v, %v", op, s.Op, err)
		}
		if _, err := ParseSpec(op.String(), "nonsense"); err == nil {
			t.Errorf("ParseSpec(%q, nonsense) accepted", op)
		}
	}
	for a := IndexBruck; a <= IndexPairwiseXOR; a++ {
		if s, err := ParseSpec("index", a.String()); err != nil || s.Index.Algorithm != a {
			t.Errorf("index %v: %+v, %v", a, s.Index, err)
		}
	}
	for a := ConcatCirculant; a <= ConcatRecursiveDoubling; a++ {
		if s, err := ParseSpec("concat", a.String()); err != nil || s.Concat.Algorithm != a {
			t.Errorf("concat %v: %+v, %v", a, s.Concat, err)
		}
	}
	for a := ReduceRing; a <= ReduceBruck; a++ {
		for _, op := range []Op{OpReduceScatter, OpAllReduce} {
			if s, err := ParseSpec(op.String(), a.String()); err != nil || s.Op != op || s.Reduce.Algorithm != a {
				t.Errorf("%v %v: %+v, %v", op, a, s.Reduce, err)
			}
		}
	}
	for _, c := range []struct {
		op, alg string
		want    Spec
	}{
		{"reducescatter", "halving", Spec{Op: OpReduceScatter, Reduce: ReduceOptions{Algorithm: ReduceHalving}}},
		{"index", "xor", Spec{Op: OpIndex, Index: IndexOptions{Algorithm: IndexPairwiseXOR}}},
		{"concat", "recdbl", Spec{Op: OpConcat, Concat: ConcatOptions{Algorithm: ConcatRecursiveDoubling}}},
		{"allreduce", "hier", Spec{Op: OpAllReduce, Hierarchical: true}},
		{"index", "hierarchical", Spec{Op: OpIndex, Hierarchical: true}},
		{"gather", "tree", Spec{Op: OpGather}},
	} {
		got, err := ParseSpec(c.op, c.alg)
		if err != nil || got.Op != c.want.Op || got.Index != c.want.Index || got.Concat != c.want.Concat ||
			got.Reduce.Algorithm != c.want.Reduce.Algorithm || got.Hierarchical != c.want.Hierarchical {
			t.Errorf("ParseSpec(%q, %q) = %+v, %v", c.op, c.alg, got, err)
		}
	}
	for _, c := range [][2]string{{"alltoall", ""}, {"index", "ring"}, {"concat", "halving"}, {"broadcast", "bruck"}} {
		if _, err := ParseSpec(c[0], c[1]); err == nil {
			t.Errorf("ParseSpec(%q, %q) accepted", c[0], c[1])
		}
	}
}

// TestKernelOptionsKeysAreDistinct: the cache identity of a built-in
// kernel names its (op, type) pair and no other's, and naming a kernel
// builds nothing — the facade does it on every WithKernel call.
func TestKernelOptionsKeysAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for op := buffers.Sum; op <= buffers.Max; op++ {
		for typ := buffers.Int32; typ <= buffers.Float64; typ++ {
			o, err := KernelOptions(op, typ)
			if err != nil || o.Kernel == nil || o.ElemSize != typ.Size() || o.KernelKey != op.String()+"/"+typ.String() || seen[o.KernelKey] {
				t.Errorf("KernelOptions(%v, %v) = %+v, %v", op, typ, o, err)
			}
			seen[o.KernelKey] = true
			if allocs := testing.AllocsPerRun(10, func() { o, err = KernelOptions(op, typ) }); allocs != 0 {
				t.Errorf("KernelOptions(%v, %v) allocates %v times a call, want 0", op, typ, allocs)
			}
		}
	}
	if _, err := KernelOptions(buffers.Max+1, buffers.Int32); err == nil {
		t.Error("an op outside the built-in set was accepted")
	}
}
