package bruck

import (
	"fmt"
	"reflect"
	"testing"

	"bruck/internal/lowerbound"
)

// raggedIndexInput builds an n x n block matrix with skewed,
// zero-including block lengths and identifying contents.
func raggedIndexInput(n int) [][][]byte {
	in := make([][][]byte, n)
	for i := range in {
		in[i] = make([][]byte, n)
		for j := range in[i] {
			ln := (i*7 + j*3) % 19
			if (i*n+j)%5 == 0 {
				ln = 0
			}
			blk := make([]byte, ln)
			for x := range blk {
				blk[x] = byte(i*131 + j*31 + x*7)
			}
			in[i][j] = blk
		}
	}
	return in
}

// raggedOut is a zero slab of the output layout of the ragged Index
// (the transpose) or Concat (the concatenation) on in.
func raggedOut(t testing.TB, op Op, in *RaggedBuffers) *RaggedBuffers {
	t.Helper()
	l := in.Layout().Transpose()
	if op == Concat {
		var err error
		if l, err = in.Layout().ConcatOut(); err != nil {
			t.Fatal(err)
		}
	}
	out, err := NewRaggedBuffers(l)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mustRagged runs the ragged form of op on a copy of the block matrix
// (or, for Concat, the vector in[0]) and returns the input and output
// slabs.
func mustRagged(t testing.TB, m *Machine, op Op, in [][][]byte, opts ...CollectiveOption) (rin, rout *RaggedBuffers, rep *Report) {
	t.Helper()
	var err error
	if op == Concat {
		rin, err = FromRaggedVector(in[0])
	} else {
		rin, err = FromRaggedMatrix(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	rout = raggedOut(t, op, rin)
	return rin, rout, mustRun(t, m, op, rin, rout, opts...)
}

// TestIndexVUniformIdenticalToIndex is the public half of the uniform
// equivalence acceptance: an equal-length block matrix run as ragged
// slabs must produce the same bytes and the same Report as on Buffers,
// on both transports, across the (n, k) acceptance grid.
func TestIndexVUniformIdenticalToIndex(t *testing.T) {
	testUniformRaggedIdentical(t, Index, 8)
}

// TestConcatVUniformIdenticalToConcat is the concatenation side.
func TestConcatVUniformIdenticalToConcat(t *testing.T) {
	testUniformRaggedIdentical(t, Concat, 6)
}

func testUniformRaggedIdentical(t *testing.T, op Op, blockLen int) {
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for n := 1; n <= 16; n++ {
			for k := 1; k <= 3 && (k == 1 || k <= n-1); k++ {
				m := MustNewMachine(n, Ports(k), WithTransport(backend))
				blocks := n
				if op == Concat {
					blocks = 1
				}
				in, out := input(t, n, blocks, blockLen, n), mustBuffers(t, n, n, blockLen)
				rep1 := mustRun(t, m, op, in, out)
				mat := in.ToMatrix()
				if op == Concat {
					vec, err := in.ToVector()
					if err != nil {
						t.Fatal(err)
					}
					mat = [][][]byte{vec}
				}
				_, rout, rep2 := mustRagged(t, m, op, mat)
				if !reflect.DeepEqual(out.ToMatrix(), rout.ToMatrix()) {
					t.Fatalf("%v n=%d k=%d: ragged %v bytes differ from the fixed-size ones", backend, n, k, op)
				}
				if !reflect.DeepEqual(rep1, rep2) {
					t.Fatalf("%v n=%d k=%d: ragged %v report %+v differs from the fixed-size %+v", backend, n, k, op, rep2, rep1)
				}
			}
		}
	}
}

// TestIndexVRagged drives the public ragged path — default, fixed
// radix, direct, auto dispatch — against the defining permutation, with
// zero-length blocks in the mix.
func TestIndexVRagged(t *testing.T) {
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, n := range []int{2, 8, 13} {
			in := raggedIndexInput(n)
			for _, tc := range []struct {
				name string
				opts []CollectiveOption
			}{
				{"default", nil},
				{"radix-n", []CollectiveOption{WithRadix(n)}},
				{"direct", []CollectiveOption{WithIndexAlgorithm(IndexDirect)}},
				{"auto", []CollectiveOption{WithAuto(SP1)}},
			} {
				m := MustNewMachine(n, WithTransport(backend))
				rin, rout, rep := mustRagged(t, m, Index, in, tc.opts...)
				checkIndex(t, n, rin, rout)
				counts := make([][]int, n)
				for i := range counts {
					counts[i] = make([]int, n)
					for j := range counts[i] {
						counts[i][j] = len(in[i][j])
					}
				}
				if want := lowerbound.IndexVVolume(counts, 1); rep.C2LowerBound != want {
					t.Errorf("%v n=%d %s: report lower bound %d, want %d", backend, n, tc.name, rep.C2LowerBound, want)
				}
				if rep.C2 < rep.C2LowerBound {
					t.Errorf("%v n=%d %s: C2 = %d below its lower bound %d", backend, n, tc.name, rep.C2, rep.C2LowerBound)
				}
			}
		}
	}
}

// TestIndexVMixedRadices exercises WithRadices through the ragged path.
func TestIndexVMixedRadices(t *testing.T) {
	const n = 12
	rin, rout, _ := mustRagged(t, MustNewMachine(n), Index, raggedIndexInput(n), WithRadices([]int{2, 3, 2}))
	checkIndex(t, n, rin, rout)
}

// TestConcatVRagged drives the public ragged concatenation, including
// the ring algorithm, auto dispatch and a zero-length contribution.
func TestConcatVRagged(t *testing.T) {
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, n := range []int{2, 9, 16} {
			in := make([][]byte, n)
			for i := range in {
				in[i] = make([]byte, (i*5)%23)
				for x := range in[i] {
					in[i][x] = byte(i*61 + x*13)
				}
			}
			for _, tc := range []struct {
				name string
				opts []CollectiveOption
			}{
				{"circulant", nil},
				{"ring", []CollectiveOption{WithConcatAlgorithm(ConcatRing)}},
				{"auto", []CollectiveOption{WithAuto(SP1)}},
			} {
				m := MustNewMachine(n, WithTransport(backend))
				rin, rout, rep := mustRagged(t, m, Concat, [][][]byte{in}, tc.opts...)
				checkConcat(t, n, rin, rout)
				counts := make([]int, n)
				for i := range counts {
					counts[i] = len(in[i])
				}
				if want := lowerbound.ConcatVVolume(counts, 1); rep.C2LowerBound != want {
					t.Errorf("%v n=%d %s: report lower bound %d, want %d", backend, n, tc.name, rep.C2LowerBound, want)
				}
			}
		}
	}
}

// TestIndexVFlatOnGroup runs the ragged index on a strict subgroup of
// the machine.
func TestIndexVFlatOnGroup(t *testing.T) {
	m := MustNewMachine(9)
	g, err := m.NewGroup([]int{1, 3, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewIndexLayout([][]int{{2, 0, 7, 1}, {3, 5, 0, 2}, {0, 1, 4, 6}, {8, 2, 3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewRaggedBuffers(l)
	if err != nil {
		t.Fatal(err)
	}
	for x, data := 0, in.Bytes(); x < len(data); x++ {
		data[x] = byte(x*17 + 1)
	}
	out := raggedOut(t, Index, in)
	mustRun(t, m, Index, in, out, OnGroup(g))
	checkIndex(t, 4, in, out)
}

// TestRunPlansMixedUniformAndRagged is the serving scenario at API
// level: a fixed-size index plan and a ragged concat plan bound to
// disjoint groups execute in one RunPlans pass.
func TestRunPlansMixedUniformAndRagged(t *testing.T) {
	m := MustNewMachine(8)
	gU, err := m.NewGroup([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	gR, err := m.NewGroup([]int{4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	uin, uout := input(t, 4, 4, 16, 2), mustBuffers(t, 4, 4, 16)
	uni := mustCompile(t, m, Index, uin, OnGroup(gU))
	if err := uni.Bind(uin, uout); err != nil {
		t.Fatal(err)
	}
	counts := []int{12, 0, 5, 33}
	l, err := NewConcatLayout(counts)
	if err != nil {
		t.Fatal(err)
	}
	rin, err := NewRaggedBuffers(l)
	if err != nil {
		t.Fatal(err)
	}
	for x, data := 0, rin.Bytes(); x < len(data); x++ {
		data[x] = byte(x*9 + 4)
	}
	rag := mustCompile(t, m, Concat, rin, OnGroup(gR))
	rout, err := NewRaggedBuffers(rag.OutLayout())
	if err != nil {
		t.Fatal(err)
	}
	if err := rag.BindV(rin, rout); err != nil {
		t.Fatal(err)
	}
	reports, err := m.RunPlans([]*Plan{uni, rag})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	checkIndex(t, 4, uin, uout)
	checkConcat(t, 4, rin, rout)
	if reports[1].C2LowerBound != lowerbound.ConcatVVolume(counts, 1) {
		t.Errorf("ragged report lower bound %d wrong", reports[1].C2LowerBound)
	}
}

// TestIndexVShapeErrors pins the user-facing validation.
func TestIndexVShapeErrors(t *testing.T) {
	m := MustNewMachine(4)
	small, err := FromRaggedMatrix([][][]byte{{{1}}, {{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(Index, small, raggedOut(t, Index, small)); err == nil {
		t.Error("Run accepted a 2x1 ragged matrix on a 4-processor world")
	}
	if _, err := m.Run(Index, (*RaggedBuffers)(nil), (*RaggedBuffers)(nil)); err == nil {
		t.Error("Run accepted nil ragged buffers")
	}
	l, _ := NewIndexLayout([][]int{{1, 2}, {3, 4}})
	in, _ := NewRaggedBuffers(l)
	badOut, _ := NewRaggedBuffers(l) // not the transpose
	g, _ := m.NewGroup([]int{0, 1})
	if _, err := m.Run(Index, in, badOut, OnGroup(g)); err == nil {
		t.Error("Run accepted a non-transposed output layout")
	}
	vec, _ := FromRaggedVector([][]byte{{1}, {2, 3}})
	if _, err := m.Run(Concat, vec, raggedOut(t, Concat, vec), OnGroup(g), WithConcatAlgorithm(ConcatFolklore)); err == nil {
		t.Error("Run accepted the folklore baseline on a ragged layout")
	}
}

// TestIndexVFlatSteadyStateAllocs pins the uniform fast path to its
// pre-refactor allocation numbers (measured 125 allocs/op for the index
// and 124 for the concatenation at this configuration before the Layout
// refactor; small headroom absorbs scheduler jitter) and bounds the
// ragged steady state relative to the uniform one.
func TestIndexVFlatSteadyStateAllocs(t *testing.T) {
	const n, blockLen, runs = 16, 128, 10
	m := MustNewMachine(n)
	var opErr error
	// steady warms the pools and the plan cache, then counts.
	steady := func(op Op, in, out any, opts ...CollectiveOption) float64 {
		m.Run(op, in, out, opts...)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := m.Run(op, in, out, opts...); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatal(opErr)
		}
		return allocs
	}
	radix2 := WithRadix(2)
	flat := steady(Index, mustBuffers(t, n, n, blockLen), mustBuffers(t, n, n, blockLen), radix2)
	if flat > 130 {
		t.Errorf("uniform index fast path allocates %.0f/op, pre-refactor pin is 125 (+ headroom 130)", flat)
	}
	if cflat := steady(Concat, mustBuffers(t, n, 1, blockLen), mustBuffers(t, n, n, blockLen)); cflat > 129 {
		t.Errorf("uniform concat fast path allocates %.0f/op, pre-refactor pin is 124 (+ headroom 129)", cflat)
	}

	// The ragged steady state reuses the same pooled machinery; allow a
	// 25% margin over the uniform path for the layout bookkeeping.
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
		for j := range counts[i] {
			counts[i][j] = 1 + (i*7+j*3)%blockLen
		}
	}
	l, err := NewIndexLayout(counts)
	if err != nil {
		t.Fatal(err)
	}
	vin, _ := NewRaggedBuffers(l)
	if ragged := steady(Index, vin, raggedOut(t, Index, vin), radix2); ragged > flat*5/4+5 {
		t.Errorf("ragged index steady state allocates %.0f/op, uniform is %.0f/op; want within 25%%", ragged, flat)
	}
}

// TestIndexVPlanReuseAcrossCalls checks the layout-digest cache: two
// calls with equal layouts must not recompile (observable through the
// plan pointer identity of Compile).
func TestIndexVPlanReuseAcrossCalls(t *testing.T) {
	m := MustNewMachine(6)
	counts := [][]int{
		{1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1},
		{1, 1, 2, 2, 3, 3},
		{0, 9, 0, 9, 0, 9},
		{2, 4, 6, 8, 10, 12},
		{1, 3, 5, 7, 9, 11},
	}
	var plans [2]*Plan
	for i := range plans {
		l, _ := NewIndexLayout(counts)
		in, err := NewRaggedBuffers(l)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = mustCompile(t, m, Index, in)
	}
	if plans[0] != plans[1] {
		t.Error("equal layouts recompiled instead of hitting the cache")
	}
	if plans[0].Layout() == nil || plans[0].OutLayout() == nil {
		t.Error("layout plan does not expose its layouts")
	}
	if fmt.Sprint(plans[0].Op()) != "index" {
		t.Errorf("plan op %q, want index", plans[0].Op())
	}
}
