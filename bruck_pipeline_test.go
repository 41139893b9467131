package bruck

// Machine-level pipelining tests: WithSegments flows through the public
// option surface into byte-identical results, the option is inert where
// pipelining does not apply (concat, baselines), and the pooled-slab
// executor keeps the segmented allocation profile within 25% of the
// monolithic one — the flat-allocs acceptance bound of the pipeline
// work.

import "testing"

// TestMachineSegmentedIndexMatchesMonolithic drives WithSegments
// through Run on every transport and checks the segmented output
// against the monolithic one.
func TestMachineSegmentedIndexMatchesMonolithic(t *testing.T) {
	const n, k, b = 12, 2, 9
	for name, m := range asyncMachines(t, n, k) {
		in, want := input(t, n, n, b, 4), mustBuffers(t, n, n, b)
		mono := mustRun(t, m, Index, in, want, WithRadix(2))
		for _, s := range []int{2, 4, 7, AutoSegments} {
			out := mustBuffers(t, n, n, b)
			rep := mustRun(t, m, Index, in, out, WithRadix(2), WithSegments(s))
			if !out.Equal(want) {
				t.Errorf("%s s=%d: segmented output differs", name, s)
			}
			if s == 4 && rep.C2 >= mono.C2 {
				t.Errorf("%s s=%d: pipelined C2 = %d did not drop below monolithic %d", name, s, rep.C2, mono.C2)
			}
		}
	}
}

// TestWithSegmentsInertWhereUnsupported: the option must be a no-op —
// not an error — on collectives and algorithms that always run
// monolithic (concat, direct index, ring reductions).
func TestWithSegmentsInertWhereUnsupported(t *testing.T) {
	const n, b = 8, 8
	m := MustNewMachine(n)
	for _, c := range []struct {
		name string
		op   Op
		in   *Buffers
		opts []CollectiveOption
	}{
		{"concat", Concat, input(t, n, 1, b, 0), nil},
		{"direct index", Index, input(t, n, n, b, 6), []CollectiveOption{WithIndexAlgorithm(IndexDirect)}},
		{"ring allreduce", AllReduce, input(t, n, n, b, 6), []CollectiveOption{WithKernel(ReduceSum, Int32), WithReduceAlgorithm(ReduceRing)}},
	} {
		want, got := mustBuffers(t, n, n, b), mustBuffers(t, n, n, b)
		mustRun(t, m, c.op, c.in, want, c.opts...)
		if _, err := m.Run(c.op, c.in, got, append(c.opts, WithSegments(4))...); err != nil {
			t.Fatalf("%s with WithSegments: %v", c.name, err)
		}
		if !got.Equal(want) {
			t.Errorf("WithSegments changed the %s output", c.name)
		}
	}
}

// TestPipelinedIndexAllocsFlat pins the pooled-slab property: the
// segmented executor must allocate within 25% of the monolithic one per
// operation in steady state (the pipelined path acquires its payload
// slabs from the engine pool, not the heap).
func TestPipelinedIndexAllocsFlat(t *testing.T) {
	const n, blockLen, runs = 16, 4096, 10
	m := MustNewMachine(n)
	in, out := input(t, n, n, blockLen, 0), mustBuffers(t, n, n, blockLen)
	var opErr error
	run := func(opts ...CollectiveOption) float64 {
		opts = append(opts, WithRadix(2))
		// Warm the plan cache so compilation stays out of the counts.
		if _, err := m.Run(Index, in, out, opts...); err != nil {
			opErr = err
		}
		return testing.AllocsPerRun(runs, func() {
			if _, err := m.Run(Index, in, out, opts...); err != nil {
				opErr = err
			}
		})
	}
	mono := run()
	seg := run(WithSegments(4))
	if opErr != nil {
		t.Fatal(opErr)
	}
	if seg > mono*1.25 {
		t.Errorf("segmented index allocates %.0f/op, monolithic %.0f/op; want within 25%%", seg, mono)
	}
}
