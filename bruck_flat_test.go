package bruck

// Sweeps and allocation pins of Run on Buffers. The block-matrix route
// (FromMatrix/FromVector in, ToMatrix out) is Run between two copies,
// so what is pinned here is Run itself: the defining permutation and
// the compiled (C1, C2) on every schedule, and the allocations the
// matrix copies add.

import (
	"fmt"
	"testing"

	"bruck/internal/intmath"
)

// checkRun runs Index or Concat from in to a fresh n x n out and holds
// it to the operation's definition and to the plan Compile returns for
// the same call.
func checkRun(t *testing.T, m *Machine, op Op, in *Buffers, opts ...CollectiveOption) {
	t.Helper()
	n := in.Procs()
	out := mustBuffers(t, n, n, in.BlockLen())
	rep := mustRun(t, m, op, in, out, opts...)
	if op == Index {
		checkIndex(t, n, in, out)
	} else {
		checkConcat(t, n, in, out)
	}
	pl, err := m.Compile(op, in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.C1 != pl.Rounds() || rep.C2 != pl.PredictedC2() {
		t.Fatalf("measured (C1=%d, C2=%d), compiled (C1=%d, C2=%d)", rep.C1, rep.C2, pl.Rounds(), pl.PredictedC2())
	}
}

// TestFlatIndexMatchesLegacy sweeps n in 1..16 and k in {1,2,3} across
// the index algorithms and radices.
func TestFlatIndexMatchesLegacy(t *testing.T) {
	const blockLen = 3
	for n := 1; n <= 16; n++ {
		for _, k := range []int{1, 2, 3} {
			if k > intmath.Max(1, n-1) {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				m := MustNewMachine(n, Ports(k))
				in := input(t, n, n, blockLen, 0)
				// Default options, the radix extremes, and the baselines.
				checkRun(t, m, Index, in)
				if n >= 2 {
					checkRun(t, m, Index, in, WithRadix(2))
					checkRun(t, m, Index, in, WithRadix(n))
				}
				checkRun(t, m, Index, in, WithIndexAlgorithm(IndexDirect))
				if intmath.IsPow(2, n) {
					checkRun(t, m, Index, in, WithIndexAlgorithm(IndexPairwiseXOR))
				}
				if mixed := OptimalRadixSchedule(SP1, n, blockLen, k); len(mixed) > 0 {
					checkRun(t, m, Index, in, WithRadices(mixed))
				}
				if n <= 6 {
					checkRun(t, m, Index, in, WithRadix(2), WithoutPacking())
				}
			})
		}
	}
}

// TestFlatConcatMatchesLegacy sweeps n in 1..16 and k in {1,2,3} across
// the concatenation algorithms and last-round policies.
func TestFlatConcatMatchesLegacy(t *testing.T) {
	const blockLen = 3
	for n := 1; n <= 16; n++ {
		for _, k := range []int{1, 2, 3} {
			if k > intmath.Max(1, n-1) {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				m := MustNewMachine(n, Ports(k))
				in := input(t, n, 1, blockLen, 0)
				checkRun(t, m, Concat, in)
				checkRun(t, m, Concat, in, WithLastRoundPolicy(LastRoundMinRounds))
				checkRun(t, m, Concat, in, WithLastRoundPolicy(LastRoundMinVolume))
				checkRun(t, m, Concat, in, WithConcatAlgorithm(ConcatRing))
				checkRun(t, m, Concat, in, WithConcatAlgorithm(ConcatFolklore))
				if intmath.IsPow(2, n) {
					checkRun(t, m, Concat, in, WithConcatAlgorithm(ConcatRecursiveDoubling))
				}
			})
		}
	}
}

// TestFlatOnGroup checks Run on a strict subgroup of the machine, where
// group ranks differ from engine ranks.
func TestFlatOnGroup(t *testing.T) {
	const n, blockLen = 5, 4
	m := MustNewMachine(9)
	g, err := m.NewGroup([]int{7, 2, 5, 0, 8})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, m, Index, input(t, n, n, blockLen, 0), OnGroup(g))
	checkRun(t, m, Concat, input(t, n, 1, blockLen, 0), OnGroup(g))
}

// TestFlatShapeErrors checks that malformed buffers are rejected up
// front rather than corrupting a run.
func TestFlatShapeErrors(t *testing.T) {
	m := MustNewMachine(4)
	good := mustBuffers(t, 4, 4, 8)
	for _, c := range []struct {
		name    string
		op      Op
		in, out *Buffers
	}{
		{"a 5-processor input on a 4-processor machine", Index, mustBuffers(t, 5, 5, 8), mustBuffers(t, 4, 4, 8)},
		{"mismatched block lengths", Index, good, mustBuffers(t, 4, 4, 7)},
		{"aliased input and output", Index, good, good},
		{"a nil input", Index, nil, good},
		{"concat: mismatched block lengths", Concat, mustBuffers(t, 4, 1, 8), mustBuffers(t, 4, 4, 7)},
		{"concat: an index-shaped input", Concat, good, mustBuffers(t, 4, 4, 8)},
	} {
		if _, err := m.Run(c.op, c.in, c.out); err == nil {
			t.Errorf("Run accepted %s", c.name)
		}
	}
}

// allocsVsMatrix returns the allocations per call of Run on standing
// buffers and of the block-matrix route around it: the caller's blocks
// copied in, the result copied out as fresh slices.
func allocsVsMatrix(t *testing.T, op Op, in *Buffers, opts ...CollectiveOption) (flat, matrix float64) {
	t.Helper()
	const runs = 10
	n, b, blocks := in.Procs(), in.BlockLen(), in.ToMatrix()
	m := MustNewMachine(n)
	out := mustBuffers(t, n, n, b)
	var opErr error
	matrix = testing.AllocsPerRun(runs, func() {
		fin, err := FromMatrix(blocks)
		fout, _ := NewIndexBuffers(n, b)
		if err == nil {
			_, err = m.Run(op, fin, fout, opts...)
			fout.ToMatrix()
		}
		if err != nil {
			opErr = err
		}
	})
	flat = testing.AllocsPerRun(runs, func() {
		if _, err := m.Run(op, in, out, opts...); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	return flat, matrix
}

// TestFlatIndexAllocs locks in the headline of the flat buffers: Run on
// standing buffers allocates at most half of what the block-matrix
// route does (the measured reduction is ~70% at this size and grows
// with n).
func TestFlatIndexAllocs(t *testing.T) {
	flat, matrix := allocsVsMatrix(t, Index, input(t, 16, 16, 32, 0), WithRadix(2))
	if flat > matrix/2 {
		t.Errorf("flat index allocates %.0f/op, the matrix route %.0f/op; want flat <= matrix/2", flat, matrix)
	}
}

// TestFlatConcatAllocs is the concatenation counterpart of
// TestFlatIndexAllocs.
func TestFlatConcatAllocs(t *testing.T) {
	flat, matrix := allocsVsMatrix(t, Concat, input(t, 16, 1, 32, 0))
	if flat > matrix/2 {
		t.Errorf("flat concat allocates %.0f/op, the matrix route %.0f/op; want flat <= matrix/2", flat, matrix)
	}
}

// TestFlatRepeatedRuns reuses one machine across operations with
// different shapes, exercising the processor-local buffer pools' size
// adaptation.
func TestFlatRepeatedRuns(t *testing.T) {
	const n = 8
	m := MustNewMachine(n, Ports(2))
	for _, blockLen := range []int{64, 1, 256, 16} {
		checkRun(t, m, Index, input(t, n, n, blockLen, 0), WithRadix(3))
	}
}

// TestPrimitiveIntoAllocs pins the point of running the primitives on
// standing buffers: the block-slice route copies the caller's blocks
// in and allocates a result slice per block on the way out, standing
// buffers route everything through caller-owned or pooled memory, so
// their per-call allocation count must sit at least n below (what
// remains is the engine's fixed per-run bookkeeping, identical for
// both). Every measurement starts from a fresh machine, so both forms of
// a primitive see the same pool state.
func TestPrimitiveIntoAllocs(t *testing.T) {
	const n, b, runs = 8, 64, 20
	if raceDetector {
		t.Skip("under -race sync.Pool drops the interpreter's frames at random")
	}
	members, atRoot := input(t, n, 1, b, 0), input(t, 1, n, b, 0)
	allocs := func(run func(m *Machine) error) float64 {
		m := MustNewMachine(n)
		return testing.AllocsPerRun(runs, func() {
			if err := run(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name    string
		op      Op
		in, out *Buffers
	}{
		{"broadcast", Broadcast, input(t, 1, 1, b, 0), members},
		{"gather", Gather, members, atRoot},
		{"scatter", Scatter, atRoot, members.Clone()},
	} {
		into := allocs(func(m *Machine) error { _, err := m.Run(tc.op, tc.in, tc.out); return err })
		blocks := tc.in.ToMatrix()
		slices := allocs(func(m *Machine) error {
			in, err := FromMatrix(blocks)
			if err != nil {
				return err
			}
			out, _ := NewBuffers(tc.out.Procs(), tc.out.Blocks(), b)
			_, err = m.Run(tc.op, in, out)
			out.ToMatrix()
			return err
		})
		t.Logf("%s: block-slice route %.0f allocs/op, standing buffers %.0f allocs/op", tc.name, slices, into)
		if into > slices-n {
			t.Errorf("%s: standing buffers save only %.0f allocs/op over the block-slice route (%.0f vs %.0f), want >= %d",
				tc.name, slices-into, into, slices, n)
		}
	}
}

// TestPrimitiveIntoAllocsBounded: on a reused machine at n=16, b=128,
// k=1 the hand-written tree bodies this replaced allocated 97
// (broadcast), 117 (gather) and 96 (scatter) times per call, rebuilding
// the tree on every rank; a cached plan run by the interpreter must not
// allocate more. (It measures 83, 87 and 82: the 75 of the folklore
// concatenation, which runs both trees, plus the transport buffers a
// one-directional tree cannot recycle — its senders' pools only drain.)
func TestPrimitiveIntoAllocsBounded(t *testing.T) {
	const n, b, runs = 16, 128, 50
	if raceDetector {
		t.Skip("under -race sync.Pool drops the interpreter's frames at random; the absolute counts are pinned without it")
	}
	m := MustNewMachine(n)
	root := Root(3)
	data, members, atRoot := mustBuffers(t, 1, 1, b), mustBuffers(t, n, 1, b), mustBuffers(t, 1, n, b)
	for _, tc := range []struct {
		name    string
		parent  float64
		op      Op
		in, out *Buffers
	}{
		{"BroadcastInto", 97, Broadcast, data, members},
		{"GatherInto", 117, Gather, members, atRoot},
		{"ScatterInto", 96, Scatter, atRoot, members},
	} {
		got := testing.AllocsPerRun(runs, func() {
			if _, err := m.Run(tc.op, tc.in, tc.out, root); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/op (hand-written body: %.0f)", tc.name, got, tc.parent)
		if got > tc.parent {
			t.Errorf("%s allocates %.0f times per call, the hand-written body it replaced %.0f", tc.name, got, tc.parent)
		}
	}
}
