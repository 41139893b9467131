package collective

import (
	"bytes"
	"fmt"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// hierShapes enumerates the group partitions the equivalence sweeps
// cover for n processors: one group (degenerate flat), all singleton
// groups (pure inter), even splits where n allows, and a ragged
// partition whose last group is smaller.
func hierShapes(n int) [][]int {
	shapes := [][]int{{n}}
	if n >= 2 {
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		shapes = append(shapes, ones)
		if n%2 == 0 {
			shapes = append(shapes, []int{n / 2, n / 2})
		}
		if n%4 == 0 && n >= 8 {
			shapes = append(shapes, []int{n / 4, n / 4, n / 4, n / 4})
		}
		if n%3 != 0 && n > 3 {
			var ragged []int
			for rem := n; rem > 0; rem -= 3 {
				c := 3
				if rem < 3 {
					c = rem
				}
				ragged = append(ragged, c)
			}
			shapes = append(shapes, ragged)
		}
	}
	return shapes
}

func hierTopo(t *testing.T, groups []int) *costmodel.Topology {
	t.Helper()
	topo, err := costmodel.NewTopology(groups, costmodel.SP1, costmodel.Scaled(costmodel.SP1, 10))
	if err != nil {
		t.Fatalf("NewTopology(%v): %v", groups, err)
	}
	return topo
}

// checkLevelSplit verifies the per-level Result stats against the
// plan's compiled per-class split — the phase-ordered schedule must
// realize the compiled class split exactly, measured or predicted.
func checkLevelSplit(t *testing.T, tag string, pl *Plan, res *Result) {
	t.Helper()
	if res.Intra == nil || res.Inter == nil {
		t.Fatalf("%s: hierarchical result missing level stats", tag)
	}
	if res.Intra.C1 != pl.PredictedClassC1(mpsim.ClassIntra) || res.Intra.C2 != pl.PredictedClassC2(mpsim.ClassIntra) {
		t.Errorf("%s: intra level measured (C1=%d, C2=%d), compiled (%d, %d)", tag,
			res.Intra.C1, res.Intra.C2, pl.PredictedClassC1(mpsim.ClassIntra), pl.PredictedClassC2(mpsim.ClassIntra))
	}
	if res.Inter.C1 != pl.PredictedClassC1(mpsim.ClassInter) || res.Inter.C2 != pl.PredictedClassC2(mpsim.ClassInter) {
		t.Errorf("%s: inter level measured (C1=%d, C2=%d), compiled (%d, %d)", tag,
			res.Inter.C1, res.Inter.C2, pl.PredictedClassC1(mpsim.ClassInter), pl.PredictedClassC2(mpsim.ClassInter))
	}
	if res.Intra.C1+res.Inter.C1 != res.C1 {
		t.Errorf("%s: level C1 split %d+%d != total %d", tag, res.Intra.C1, res.Inter.C1, res.C1)
	}
	if res.Intra.C2+res.Inter.C2 != res.C2 {
		t.Errorf("%s: level C2 split %d+%d != total %d", tag, res.Intra.C2, res.Inter.C2, res.C2)
	}
	if res.Intra.C1 < res.Intra.C1LowerBound || res.Intra.C2 < res.Intra.C2LowerBound {
		t.Errorf("%s: intra level (C1=%d, C2=%d) below bounds (%d, %d)", tag,
			res.Intra.C1, res.Intra.C2, res.Intra.C1LowerBound, res.Intra.C2LowerBound)
	}
	if res.Inter.C1 < res.Inter.C1LowerBound || res.Inter.C2 < res.Inter.C2LowerBound {
		t.Errorf("%s: inter level (C1=%d, C2=%d) below bounds (%d, %d)", tag,
			res.Inter.C1, res.Inter.C2, res.Inter.C1LowerBound, res.Inter.C2LowerBound)
	}
}

func runHierIndex(t *testing.T, e *mpsim.Engine, n, b int, topo *costmodel.Topology, tag string) {
	t.Helper()
	g := mpsim.WorldGroup(n)
	pl, err := CompileHierarchicalIndex(e, g, b, topo, HierOptions{})
	if err != nil {
		t.Fatalf("%s: CompileHierarchicalIndex: %v", tag, err)
	}
	if v := pl.Check(); v != nil {
		t.Fatalf("%s: Check: %v", tag, v)
	}
	in := genIndexInput(n, b)
	fin, err := buffers.FromMatrix(in)
	if err != nil {
		t.Fatal(err)
	}
	fout, err := buffers.New(n, n, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(pl.Memory(fin, fout))
	if err != nil {
		t.Fatalf("%s: Run: %v", tag, err)
	}
	checkTranspose(t, in, fout.ToMatrix(), tag)
	if res.C1 != pl.Rounds() || res.C2 != pl.PredictedC2() {
		t.Errorf("%s: measured (C1=%d, C2=%d), compiled (%d, %d)", tag, res.C1, res.C2, pl.Rounds(), pl.PredictedC2())
	}
	checkLevelSplit(t, tag, pl, res)
}

// TestHierIndexMatchesFlat: the hierarchical index is byte-identical to
// the flat transpose for every n, port count and group shape, and its
// measured total and per-level C1/C2 equal the compiled phase table.
func TestHierIndexMatchesFlat(t *testing.T) {
	const b = 3
	for n := 1; n <= 16; n++ {
		for k := 1; k <= 3 && k <= intmath_max(1, n-1); k++ {
			for _, groups := range hierShapes(n) {
				topo := hierTopo(t, groups)
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()))
				runHierIndex(t, e, n, b, topo, fmt.Sprintf("index n=%d k=%d groups=%v", n, k, groups))
			}
		}
	}
}

func intmath_max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func runHierConcat(t *testing.T, e *mpsim.Engine, n, b int, topo *costmodel.Topology, tag string) {
	t.Helper()
	g := mpsim.WorldGroup(n)
	pl, err := Compile(e, g, Spec{Op: OpConcat, BlockLen: b, Hierarchical: true, Topology: topo})
	if err != nil {
		t.Fatalf("%s: compile hierarchical concat: %v", tag, err)
	}
	if v := pl.Check(); v != nil {
		t.Fatalf("%s: Check: %v", tag, v)
	}
	in := make([][]byte, n)
	for i := range in {
		blk := make([]byte, b)
		for x := range blk {
			blk[x] = byte(i*37 + x*11 + 5)
		}
		in[i] = blk
	}
	fin, err := buffers.FromVector(in)
	if err != nil {
		t.Fatal(err)
	}
	fout, err := buffers.New(n, n, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(pl.Memory(fin, fout))
	if err != nil {
		t.Fatalf("%s: Run: %v", tag, err)
	}
	out := fout.ToMatrix()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out[i][j], in[j]) {
				t.Fatalf("%s: out[%d][%d] != in[%d]", tag, i, j, j)
			}
		}
	}
	if res.C1 != pl.Rounds() || res.C2 != pl.PredictedC2() {
		t.Errorf("%s: measured (C1=%d, C2=%d), compiled (%d, %d)", tag, res.C1, res.C2, pl.Rounds(), pl.PredictedC2())
	}
	checkLevelSplit(t, tag, pl, res)
}

// TestHierConcatMatchesFlat: the hierarchical concatenation gathers
// every block everywhere, byte-identical to the flat circulant.
func TestHierConcatMatchesFlat(t *testing.T) {
	const b = 5
	for n := 1; n <= 16; n++ {
		for k := 1; k <= 3 && k <= intmath_max(1, n-1); k++ {
			for _, groups := range hierShapes(n) {
				topo := hierTopo(t, groups)
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()))
				runHierConcat(t, e, n, b, topo, fmt.Sprintf("concat n=%d k=%d groups=%v", n, k, groups))
			}
		}
	}
}

func runHierAllReduce(t *testing.T, e *mpsim.Engine, n int, topo *costmodel.Topology, tag string) {
	t.Helper()
	const elems = 2
	b := elems * 4
	kern, err := buffers.Kernel(buffers.Sum, buffers.Int32)
	if err != nil {
		t.Fatal(err)
	}
	g := mpsim.WorldGroup(n)
	pl, err := CompileHierarchicalReduce(e, g, AllReduceKind, b, topo, ReduceOptions{
		Kernel: kern, ElemSize: 4, KernelKey: "sum:int32",
	})
	if err != nil {
		t.Fatalf("%s: CompileHierarchicalReduce: %v", tag, err)
	}
	if v := pl.Check(); v != nil {
		t.Fatalf("%s: Check: %v", tag, v)
	}
	in := make([][][]byte, n)
	want := make([][]int32, n) // want[j] is the reduced chunk j
	for j := 0; j < n; j++ {
		want[j] = make([]int32, elems)
	}
	for i := 0; i < n; i++ {
		in[i] = make([][]byte, n)
		for j := 0; j < n; j++ {
			vals := make([]int32, elems)
			for x := range vals {
				vals[x] = int32(i*1000 + j*10 + x)
				want[j][x] += vals[x]
			}
			blk := make([]byte, b)
			buffers.Put(blk, vals)
			in[i][j] = blk
		}
	}
	fin, err := buffers.FromMatrix(in)
	if err != nil {
		t.Fatal(err)
	}
	fout, err := buffers.New(n, n, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(pl.Memory(fin, fout))
	if err != nil {
		t.Fatalf("%s: Run: %v", tag, err)
	}
	out := fout.ToMatrix()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wantBlk := make([]byte, b)
			buffers.Put(wantBlk, want[j])
			if !bytes.Equal(out[i][j], wantBlk) {
				t.Fatalf("%s: out[%d][%d] is not the elementwise sum", tag, i, j)
			}
		}
	}
	if res.C1 != pl.Rounds() || res.C2 != pl.PredictedC2() {
		t.Errorf("%s: measured (C1=%d, C2=%d), compiled (%d, %d)", tag, res.C1, res.C2, pl.Rounds(), pl.PredictedC2())
	}
	checkLevelSplit(t, tag, pl, res)
}

// TestHierAllReduceMatchesFlat: the hierarchical allreduce computes the
// exact elementwise int32 sum — byte-identical to the flat schedules
// for exact commutative kernels — on every shape.
func TestHierAllReduceMatchesFlat(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for k := 1; k <= 3 && k <= intmath_max(1, n-1); k++ {
			for _, groups := range hierShapes(n) {
				topo := hierTopo(t, groups)
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()))
				runHierAllReduce(t, e, n, topo, fmt.Sprintf("allreduce n=%d k=%d groups=%v", n, k, groups))
			}
		}
	}
}

// TestHierTransports: the hierarchical schedules are correct and keep
// their compiled per-level split on a plain engine and under the chaos
// transport with stragglers, at two seeds.
func TestHierTransports(t *testing.T) {
	const n, k = 12, 2
	topo := hierTopo(t, []int{4, 4, 4})
	engines := map[string]*mpsim.Engine{
		"plain": mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment())),
		"chaos-7": mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()),
			mpsim.WithChaos(mpsim.ChaosConfig{Seed: 7, Stragglers: []int{0, 5}})),
		"chaos-11": mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()),
			mpsim.WithChaos(mpsim.ChaosConfig{Seed: 11, Stragglers: []int{3}})),
	}
	for name, e := range engines {
		runHierIndex(t, e, n, 4, topo, "index/"+name)
		runHierConcat(t, e, n, 4, topo, "concat/"+name)
		runHierAllReduce(t, e, n, topo, "allreduce/"+name)
	}
}

// TestHierZeroBlock: zero-byte blocks still run the full round
// structure (C1 intact, C2 zero).
func TestHierZeroBlock(t *testing.T) {
	const n, k = 8, 1
	topo := hierTopo(t, []int{4, 4})
	e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()))
	runHierIndex(t, e, n, 0, topo, "index b=0")
	runHierConcat(t, e, n, 0, topo, "concat b=0")
}

// TestHierPlanCacheMemoizes: equal topologies hit the digest-keyed
// cache entry; a different partition of the same n misses it.
func TestHierPlanCacheMemoizes(t *testing.T) {
	const n, k, b = 8, 1, 4
	e := mpsim.MustNew(n, mpsim.Ports(k))
	g := mpsim.WorldGroup(n)
	c := NewPlanCache()
	topoA := hierTopo(t, []int{4, 4})
	topoB := hierTopo(t, []int{4, 4}) // equal value, distinct pointer
	topoC := hierTopo(t, []int{2, 6})
	p1, err := c.Get(e, g, Spec{Op: OpIndex, BlockLen: b, Hierarchical: true, Topology: topoA})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(e, g, Spec{Op: OpIndex, BlockLen: b, Hierarchical: true, Topology: topoB})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("equal topologies compiled distinct plans: cache missed")
	}
	p3, err := c.Get(e, g, Spec{Op: OpIndex, BlockLen: b, Hierarchical: true, Topology: topoC})
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Errorf("different topologies shared one cached plan")
	}
	if p3.Topology() == nil || !p3.Topology().Equal(topoC) {
		t.Errorf("plan topology does not match the compile topology")
	}
}

// TestHierRejectsBadConfigs: topology/group mismatches and unsupported
// kinds fail at compile time.
func TestHierRejectsBadConfigs(t *testing.T) {
	const n = 8
	e := mpsim.MustNew(n, mpsim.Ports(1))
	g := mpsim.WorldGroup(n)
	topo := hierTopo(t, []int{4, 4})
	if _, err := CompileHierarchicalIndex(e, g, 4, nil, HierOptions{}); err == nil {
		t.Error("nil topology accepted")
	}
	small := hierTopo(t, []int{2, 2})
	if _, err := CompileHierarchicalIndex(e, g, 4, small, HierOptions{}); err == nil {
		t.Error("topology with the wrong processor count accepted")
	}
	if _, err := CompileHierarchicalIndex(e, g, -1, topo, HierOptions{}); err == nil {
		t.Error("negative block size accepted")
	}
	kern, _ := buffers.Kernel(buffers.Sum, buffers.Int32)
	if _, err := CompileHierarchicalReduce(e, g, ReduceScatterKind, 4, topo, ReduceOptions{Kernel: kern, ElemSize: 4}); err == nil {
		t.Error("hierarchical reduce-scatter accepted")
	}
	if _, err := CompileHierarchicalReduce(e, g, AllReduceKind, 4, topo, ReduceOptions{}); err == nil {
		t.Error("allreduce without a kernel accepted")
	}
	if _, err := CompileHierarchicalReduce(e, g, AllReduceKind, 6, topo, ReduceOptions{Kernel: kern, ElemSize: 4}); err == nil {
		t.Error("block size not divisible by the element size accepted")
	}
}

// FuzzHierPartition fuzzes the group-partition builder: arbitrary size
// vectors either fail topology validation (zero or negative groups,
// sizes not summing to n) or compile into a schedule that executes the
// exact transpose — single-member groups degenerating to pure
// leader-level traffic included.
func FuzzHierPartition(f *testing.F) {
	f.Add([]byte{4, 4}, uint8(1))
	f.Add([]byte{1, 1, 1, 1}, uint8(2))
	f.Add([]byte{3, 2, 1}, uint8(1))
	f.Add([]byte{0, 4}, uint8(1)) // empty group: must be rejected
	f.Add([]byte{5}, uint8(3))    // single group: degenerates to flat
	f.Add([]byte{2, 2, 2}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw uint8) {
		if len(raw) == 0 || len(raw) > 6 {
			return
		}
		groups := make([]int, len(raw))
		n := 0
		for i, v := range raw {
			groups[i] = int(v % 5)
			n += groups[i]
		}
		if n == 0 || n > 14 {
			return
		}
		k := 1 + int(kRaw%3)
		topo, err := costmodel.NewTopology(groups, costmodel.SP1, costmodel.Scaled(costmodel.SP1, 10))
		hasEmpty := false
		for _, m := range groups {
			if m < 1 {
				hasEmpty = true
			}
		}
		if hasEmpty {
			if err == nil {
				t.Fatalf("NewTopology(%v) accepted an empty group", groups)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewTopology(%v): %v", groups, err)
		}
		e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()))
		runHierIndex(t, e, n, 2, topo, fmt.Sprintf("fuzz groups=%v k=%d", groups, k))
	})
}

// TestHierCopyStepsMoveEqualLengths: on every rank of every fixed-size
// hierarchical plan, a local copy step addresses as many bytes on its
// source side as on its destination side — a copy cut to the shorter
// side hides a source list that names bytes it never moves (hier
// concat's leader once listed the flank's own output extents among its
// sources).
func TestHierCopyStepsMoveEqualLengths(t *testing.T) {
	const b = 8
	sum, err := KernelOptions(buffers.Sum, buffers.Int32)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 12; n++ {
		for k := 1; k <= 2 && k <= max(1, n-1); k++ {
			for _, groups := range hierShapes(n) {
				topo := hierTopo(t, groups)
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()))
				for _, op := range []Op{OpIndex, OpConcat, OpAllReduce} {
					spec := Spec{Op: op, BlockLen: b, Hierarchical: true, Topology: topo}
					if op == OpAllReduce {
						spec.Reduce = sum
					}
					pl, err := Compile(e, mpsim.WorldGroup(n), spec)
					if err != nil {
						t.Fatalf("%v n=%d k=%d groups=%v: %v", op, n, k, groups, err)
					}
					pr := pl.prog
					for me := 0; me < n; me++ {
						for i, s := range pr.role(me).steps {
							if s.kind != stepCopy {
								continue
							}
							if from, to := pr.measure(s.xfers[0].send, me), pr.measure(s.xfers[0].recv, me); from != to {
								t.Errorf("%v n=%d k=%d groups=%v: rank %d step %d copies %d source bytes to %d", op, n, k, groups, me, i, from, to)
							}
						}
					}
				}
			}
		}
	}
}
