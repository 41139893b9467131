package sweep

import (
	"fmt"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/mpsim"
)

// Allocation study: the legacy [][][]byte entry points are adapters
// over the flat zero-copy paths, so the difference between the first
// two measurements below is exactly the cost of the block-matrix layout
// (per-block slices on input conversion and result assembly). The third
// measurement executes a precompiled Plan, removing per-call schedule
// construction on top of the flat layout. The cmd/indexbench and
// cmd/concatbench -allocs modes print these numbers; the regression
// tests in the root package lock in the >= 50% legacy-to-flat
// reduction.

// IndexAllocs measures the average allocations per operation of the
// legacy (block-matrix), flat and compiled-plan index paths for n
// processors, block size b, radix r and k ports, on a warmed-up engine
// using transport backend tr.
func IndexAllocs(tr mpsim.Backend, n, b, r, k, runs int) (legacy, flat, planned float64, err error) {
	in := make([][][]byte, n)
	for i := range in {
		in[i] = make([][]byte, n)
		for j := range in[i] {
			blk := make([]byte, b)
			for x := range blk {
				blk[x] = byte(i + j + x)
			}
			in[i][j] = blk
		}
	}
	spec := collective.Spec{Op: collective.OpIndex, BlockLen: b, Index: collective.IndexOptions{Radix: r}}
	return allocStudy("index", tr, n, k, runs, spec, func() (*buffers.Buffers, error) { return buffers.FromMatrix(in) })
}

// ConcatAllocs is IndexAllocs for the concatenation.
func ConcatAllocs(tr mpsim.Backend, n, b, k, runs int) (legacy, flat, planned float64, err error) {
	in := make([][]byte, n)
	for i := range in {
		in[i] = make([]byte, b)
		for x := range in[i] {
			in[i][x] = byte(i + x)
		}
	}
	spec := collective.Spec{Op: collective.OpConcat, BlockLen: b}
	return allocStudy("concat", tr, n, k, runs, spec, func() (*buffers.Buffers, error) { return buffers.FromVector(in) })
}

// allocStudy measures the three paths of one spec; copyIn is the legacy
// path's conversion of the caller's block slices into a flat slab.
func allocStudy(op string, tr mpsim.Backend, n, k, runs int, spec collective.Spec, copyIn func() (*buffers.Buffers, error)) (legacy, flat, planned float64, err error) {
	e, err := mpsim.New(n, mpsim.Ports(k), mpsim.WithTransport(tr))
	if err != nil {
		return 0, 0, 0, err
	}
	g := mpsim.WorldGroup(n)
	fin, err := copyIn()
	if err != nil {
		return 0, 0, 0, err
	}
	fout, err := buffers.New(n, n, spec.BlockLen)
	if err != nil {
		return 0, 0, 0, err
	}
	plan, err := collective.Compile(e, g, spec)
	if err != nil {
		return 0, 0, 0, err
	}
	var opErr error
	perCall := func(in, out *buffers.Buffers) {
		pl, err := collective.Compile(e, g, spec)
		if err == nil {
			_, err = pl.Execute(in, out)
		}
		if err != nil {
			opErr = err
		}
	}
	legacy = testing.AllocsPerRun(runs, func() {
		in, err := copyIn()
		if err != nil {
			opErr = err
			return
		}
		out, err := buffers.New(n, n, spec.BlockLen)
		if err != nil {
			opErr = err
			return
		}
		perCall(in, out)
		out.ToMatrix()
	})
	flat = testing.AllocsPerRun(runs, func() { perCall(fin, fout) })
	planned = testing.AllocsPerRun(runs, func() {
		if _, err := plan.Execute(fin, fout); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return 0, 0, 0, fmt.Errorf("sweep: %s alloc study: %w", op, opErr)
	}
	return legacy, flat, planned, nil
}
