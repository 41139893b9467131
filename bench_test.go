package bruck

// One benchmark per evaluation artifact of the paper. Benchmarks run
// the real schedules on the simulator and attach the paper's complexity
// measures (C1 rounds, C2 bytes) and the SP-1 linear-model time as
// custom metrics, so `go test -bench .` regenerates the quantities
// behind every figure and table:
//
//	BenchmarkFig4IndexRadixSweep    — Fig 4: time vs message size per radix
//	BenchmarkFig5SpecialCases       — Fig 5: r=2 vs r=n vs tuned radix
//	BenchmarkFig6RadixCurve         — Fig 6: time vs radix per message size
//	BenchmarkTable1Partition        — Table 1: last-round table partitioning
//	BenchmarkFig7SpanningTree       — Figs 7/8: circulant spanning trees
//	BenchmarkFig9ConcatTrace        — Fig 9: one-port concatenation trace
//	BenchmarkConcatAlgorithms       — Section 4: circulant vs baselines
//	BenchmarkLowerBoundCheck        — Section 2: bounds evaluation
//	BenchmarkAblation*              — design-decision ablations
//
// The figure *shapes* (who wins where, crossovers) are asserted by unit
// tests in internal/sweep; these benchmarks expose the raw numbers and
// the simulator's own wall-clock cost.

import (
	"fmt"
	"testing"

	"bruck/internal/benchsuite"
	"bruck/internal/buffers"
	"bruck/internal/circulant"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
	"bruck/internal/trace"
)

func benchIndexInput(n, blockLen int) [][][]byte {
	in := make([][][]byte, n)
	for i := range in {
		in[i] = make([][]byte, n)
		for j := range in[i] {
			blk := make([]byte, blockLen)
			for x := range blk {
				blk[x] = byte(i + j + x)
			}
			in[i][j] = blk
		}
	}
	return in
}

func benchConcatInput(n, blockLen int) [][]byte {
	in := make([][]byte, n)
	for i := range in {
		in[i] = make([]byte, blockLen)
		for x := range in[i] {
			in[i][x] = byte(i + x)
		}
	}
	return in
}

func reportModel(b *testing.B, rep *Report) {
	b.Helper()
	b.ReportMetric(float64(rep.C1), "C1-rounds")
	b.ReportMetric(float64(rep.C2), "C2-bytes")
	b.ReportMetric(rep.Time(costmodel.SP1)*1e6, "SP1-model-us")
}

// BenchmarkIndex measures the flat zero-copy index API on the channel
// transport and on the shared-memory slot transport, whose win is
// ns/op, not allocations. (That the flat path allocates at most half of
// what the [][][]byte adapter does is pinned by TestFlatIndexAllocs and
// measured by benchmark/'s allocs_per_op.)
func BenchmarkIndex(b *testing.B) {
	const n, size, r = 16, 128, 2
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		b.Run("flat-"+string(backend), func(b *testing.B) {
			m := MustNewMachine(n, WithTransport(backend))
			fin, err := buffers.FromMatrix(benchIndexInput(n, size))
			if err != nil {
				b.Fatal(err)
			}
			fout, err := NewIndexBuffers(n, size)
			if err != nil {
				b.Fatal(err)
			}
			var rep *Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = m.IndexFlat(fin, fout, WithRadix(r))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkIndexPipelined measures segment pipelining at a
// bandwidth-bound 64 KiB block size on both transports: the monolithic
// schedule against the same schedule split into 4 segments (pipelined
// rounds overlap segment transfers and use the owned-payload exchange,
// halving the per-message copies). The committed BENCH_pipeline.json
// snapshot (`bruckctl bench -area pipeline`) tracks the same shapes.
func BenchmarkIndexPipelined(b *testing.B) {
	const n, size, r = 16, 64 << 10, 2
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, tc := range []struct {
			name string
			segs int
		}{{"mono", 0}, {"s4", 4}} {
			b.Run(tc.name+"-"+string(backend), func(b *testing.B) {
				m := MustNewMachine(n, WithTransport(backend))
				plan, err := m.CompileIndex(size, WithRadix(r), WithSegments(tc.segs))
				if err != nil {
					b.Fatal(err)
				}
				fin, err := buffers.FromMatrix(benchIndexInput(n, size))
				if err != nil {
					b.Fatal(err)
				}
				fout, err := NewIndexBuffers(n, size)
				if err != nil {
					b.Fatal(err)
				}
				var rep *Report
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err = plan.Execute(fin, fout)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportModel(b, rep)
			})
		}
	}
}

// BenchmarkConcat is BenchmarkIndex for the concatenation (allocation
// bound: TestFlatConcatAllocs).
func BenchmarkConcat(b *testing.B) {
	const n, size = 16, 128
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		b.Run("flat-"+string(backend), func(b *testing.B) {
			m := MustNewMachine(n, WithTransport(backend))
			fin, err := buffers.FromVector(benchConcatInput(n, size))
			if err != nil {
				b.Fatal(err)
			}
			fout, err := NewIndexBuffers(n, size)
			if err != nil {
				b.Fatal(err)
			}
			var rep *Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = m.ConcatFlat(fin, fout)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkFig4IndexRadixSweep regenerates the Figure 4 grid: the index
// operation on 64 processors for power-of-two radices and a spread of
// message sizes.
func BenchmarkFig4IndexRadixSweep(b *testing.B) {
	const n = 64
	for _, r := range []int{2, 4, 8, 16, 32, 64} {
		for _, size := range []int{16, 128, 1024} {
			b.Run(fmt.Sprintf("r=%d/b=%d", r, size), func(b *testing.B) {
				m := MustNewMachine(n)
				in := benchIndexInput(n, size)
				var rep *Report
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					_, rep, err = m.Index(in, WithRadix(r))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportModel(b, rep)
			})
		}
	}
}

// BenchmarkFig5SpecialCases regenerates the Figure 5 comparison at the
// crossover region: r=2, r=n and the tuned power-of-two radix at 128
// bytes (between the 100-200 byte break-even the paper reports).
func BenchmarkFig5SpecialCases(b *testing.B) {
	const n, size = 64, 128
	tuned := OptimalRadix(SP1, n, size, 1, true)
	for _, tc := range []struct {
		name string
		r    int
	}{
		{"r=2", 2},
		{"r=n", n},
		{fmt.Sprintf("tuned-r=%d", tuned), tuned},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNewMachine(n)
			in := benchIndexInput(n, size)
			var rep *Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = m.Index(in, WithRadix(tc.r))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkFig6RadixCurve regenerates the Figure 6 curve: time versus
// radix for 32, 64 and 128-byte messages on 64 processors.
func BenchmarkFig6RadixCurve(b *testing.B) {
	const n = 64
	for _, size := range []int{32, 64, 128} {
		for _, r := range []int{2, 4, 8, 16, 32, 64} {
			b.Run(fmt.Sprintf("b=%d/r=%d", size, r), func(b *testing.B) {
				m := MustNewMachine(n)
				in := benchIndexInput(n, size)
				var rep *Report
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					_, rep, err = m.Index(in, WithRadix(r))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportModel(b, rep)
			})
		}
	}
}

// BenchmarkTable1Partition solves the last-round table-partitioning
// problem, including the paper's Table 1 instance (b=3, n2=7, n1=3,
// k=3) and larger shapes.
func BenchmarkTable1Partition(b *testing.B) {
	for _, tc := range []struct{ b, n2, n1, k int }{
		{3, 7, 3, 3},      // Table 1
		{8, 48, 16, 3},    // larger optimal-range instance
		{5, 60, 16, 4},    // wide instance
		{4, 255, 256, 63}, // many ports
	} {
		b.Run(fmt.Sprintf("b=%d,n2=%d,n1=%d,k=%d", tc.b, tc.n2, tc.n1, tc.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, err := partition.Solve(tc.b, tc.n2, tc.n1, tc.k, partition.PreferOptimal)
				if err != nil {
					b.Fatal(err)
				}
				if err := plan.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7SpanningTree builds the circulant spanning trees of
// Figures 7 and 8 and larger instances, including the translation that
// derives T_i from T_0.
func BenchmarkFig7SpanningTree(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{9, 2}, {64, 1}, {256, 3}, {1000, 4}} {
		b.Run(fmt.Sprintf("n=%d,k=%d", tc.n, tc.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t0, err := circulant.BuildFullTree(tc.n, tc.k, 0, circulant.Positive)
				if err != nil {
					b.Fatal(err)
				}
				_ = t0.Translate(1)
			}
		})
	}
}

// BenchmarkFig9ConcatTrace renders the Figure 9 label trace.
func BenchmarkFig9ConcatTrace(b *testing.B) {
	for _, n := range []int{5, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := trace.TraceConcat(n)
				if err != nil {
					b.Fatal(err)
				}
				_ = tr.String()
			}
		})
	}
}

// BenchmarkConcatAlgorithms compares the circulant algorithm with the
// baselines of Section 4 on the simulator.
func BenchmarkConcatAlgorithms(b *testing.B) {
	const n, size = 32, 256
	for _, tc := range []struct {
		name string
		alg  collective.ConcatAlgorithm
	}{
		{"circulant", ConcatCirculant},
		{"folklore", ConcatFolklore},
		{"ring", ConcatRing},
		{"recursive-doubling", ConcatRecursiveDoubling},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNewMachine(n)
			in := benchConcatInput(n, size)
			var rep *Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = m.Concat(in, WithConcatAlgorithm(tc.alg))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkConcatKPort shows the multiport scaling of the circulant
// algorithm (Section 4's k-port model).
func BenchmarkConcatKPort(b *testing.B) {
	const n, size = 64, 128
	for _, k := range []int{1, 2, 3, 7} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			m := MustNewMachine(n, Ports(k))
			in := benchConcatInput(n, size)
			var rep *Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = m.Concat(in)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkIndexKPort shows the multiport scaling of the Bruck index
// algorithm (Section 3.4).
func BenchmarkIndexKPort(b *testing.B) {
	const n, size = 64, 64
	for _, tc := range []struct{ k, r int }{{1, 2}, {2, 3}, {3, 4}, {7, 8}} {
		b.Run(fmt.Sprintf("k=%d,r=%d", tc.k, tc.r), func(b *testing.B) {
			m := MustNewMachine(n, Ports(tc.k))
			in := benchIndexInput(n, size)
			var rep *Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = m.Index(in, WithRadix(tc.r))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkAblationPacking measures the cost of disabling the pack/
// unpack optimization of Appendix A (each block travels alone).
func BenchmarkAblationPacking(b *testing.B) {
	const n, size = 16, 64
	for _, tc := range []struct {
		name string
		opts []CollectiveOption
	}{
		{"packed", []CollectiveOption{WithRadix(2)}},
		{"unpacked", []CollectiveOption{WithRadix(2), WithoutPacking()}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNewMachine(n)
			in := benchIndexInput(n, size)
			var rep *Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = m.Index(in, tc.opts...)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkAblationLastRoundPolicy compares the three last-round
// policies of the concatenation algorithm inside the special range
// (n=63, b=4, k=3 has (k+1)^3 - k = 61 < 63 < 64).
func BenchmarkAblationLastRoundPolicy(b *testing.B) {
	const n, size, k = 63, 4, 3
	if !partition.InSpecialRange(n, size, k) {
		b.Fatal("benchmark configuration left the special range")
	}
	for _, tc := range []struct {
		name   string
		policy partition.Policy
	}{
		{"prefer-optimal", LastRoundPreferOptimal},
		{"min-rounds", LastRoundMinRounds},
		{"min-volume", LastRoundMinVolume},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNewMachine(n, Ports(k))
			in := benchConcatInput(n, size)
			var rep *Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = m.Concat(in, WithLastRoundPolicy(tc.policy))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkLowerBoundCheck evaluates the Section 2 bounds (cheap,
// included so the bounds tables regenerate from the bench run too).
func BenchmarkLowerBoundCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{8, 64, 100, 1000} {
			for k := 1; k <= 4; k++ {
				_ = lowerbound.IndexRounds(n, k)
				_ = lowerbound.IndexVolume(n, 128, k)
				_ = lowerbound.ConcatRounds(n, k)
				_ = lowerbound.ConcatVolume(n, 128, k)
			}
		}
	}
}

// BenchmarkEngineSendRecv measures the raw simulator round-trip cost
// per transport backend, the floor under every collective benchmark
// above and the purest chan-vs-slot comparison.
func BenchmarkEngineSendRecv(b *testing.B) {
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		for _, n := range []int{2, 16, 64} {
			b.Run(fmt.Sprintf("%s/n=%d", backend, n), func(b *testing.B) {
				e := mpsim.MustNew(n, mpsim.WithTransport(backend))
				payload := make([]byte, 64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					err := e.Run(func(p *mpsim.Proc) error {
						me := p.Rank()
						_, err := p.SendRecv((me+1)%n, payload, (me-1+n)%n)
						return err
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOptimalRadixSearch measures the model-based tuner.
func BenchmarkOptimalRadixSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = OptimalRadix(SP1, 64, 128, 1, false)
	}
}

// BenchmarkIndexPlanReuse isolates the cost of per-call schedule
// construction: "compile-per-call" is the package-level IndexFlat
// (compile + execute on every iteration), "plan-reuse" executes one
// precompiled Plan. Results are byte-identical; the delta is pure
// schedule-compilation overhead (digit bucketing, round layout). The
// channel backend keeps idle processors parked, so the delta is not
// drowned in spin-waiting on hosts with fewer cores than processors.
func BenchmarkIndexPlanReuse(b *testing.B) {
	const size = 64
	for _, n := range []int{16, 64} {
		e := mpsim.MustNew(n, mpsim.WithTransport(mpsim.BackendChan))
		g := mpsim.WorldGroup(n)
		fin, err := buffers.FromMatrix(benchIndexInput(n, size))
		if err != nil {
			b.Fatal(err)
		}
		fout, err := buffers.New(n, n, size)
		if err != nil {
			b.Fatal(err)
		}
		opt := collective.IndexOptions{Radix: 2}
		plan, err := collective.CompileIndex(e, g, size, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/compile-per-call", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compileAndRun(e, g, collective.Spec{Op: collective.OpIndex, Index: opt}, fin, fout); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/plan-reuse", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(fin, fout); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/compile-only", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := collective.CompileIndex(e, g, size, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcatPlanReuse is the concatenation counterpart; here
// compile-per-call re-solves the last-round table partition on every
// call, so the amortization win is larger.
func BenchmarkConcatPlanReuse(b *testing.B) {
	const size = 64
	for _, n := range []int{16, 64} {
		e := mpsim.MustNew(n, mpsim.WithTransport(mpsim.BackendChan))
		g := mpsim.WorldGroup(n)
		fin, err := buffers.FromVector(benchConcatInput(n, size))
		if err != nil {
			b.Fatal(err)
		}
		fout, err := buffers.New(n, n, size)
		if err != nil {
			b.Fatal(err)
		}
		opt := collective.ConcatOptions{}
		plan, err := collective.CompileConcat(e, g, size, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/compile-per-call", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compileAndRun(e, g, collective.Spec{Op: collective.OpConcat, Concat: opt}, fin, fout); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/plan-reuse", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(fin, fout); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/compile-only", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := collective.CompileConcat(e, g, size, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunPlansDisjoint compares executing two disjoint-group plans
// sequentially (two engine runs) against one concurrent RunPlans pass
// (one engine run hosting both groups).
func BenchmarkRunPlansDisjoint(b *testing.B) {
	const per, size = 8, 64
	m := MustNewMachine(2*per, WithTransport(BackendSlot))
	lo := make([]int, per)
	hi := make([]int, per)
	for i := 0; i < per; i++ {
		lo[i], hi[i] = i, per+i
	}
	gLo, err := m.NewGroup(lo)
	if err != nil {
		b.Fatal(err)
	}
	gHi, err := m.NewGroup(hi)
	if err != nil {
		b.Fatal(err)
	}
	plLo, err := m.CompileIndex(size, OnGroup(gLo), WithRadix(2))
	if err != nil {
		b.Fatal(err)
	}
	plHi, err := m.CompileIndex(size, OnGroup(gHi), WithRadix(2))
	if err != nil {
		b.Fatal(err)
	}
	mk := func() (*Buffers, *Buffers) {
		in, err := buffers.FromMatrix(benchIndexInput(per, size))
		if err != nil {
			b.Fatal(err)
		}
		out, err := buffers.New(per, per, size)
		if err != nil {
			b.Fatal(err)
		}
		return in, out
	}
	inLo, outLo := mk()
	inHi, outHi := mk()
	if err := plLo.Bind(inLo, outLo); err != nil {
		b.Fatal(err)
	}
	if err := plHi.Bind(inHi, outHi); err != nil {
		b.Fatal(err)
	}
	plans := []*Plan{plLo, plHi}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plLo.Execute(inLo, outLo); err != nil {
				b.Fatal(err)
			}
			if _, err := plHi.Execute(inHi, outHi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.RunPlans(plans); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexV compares the ragged-layout index paths: the uniform
// fast path through IndexVFlat (which must track IndexFlat), a skewed
// ragged layout on the padded Bruck schedule, the same layout on the
// exact-extent direct exchange, and the cost-model auto dispatch. All
// variants reuse one machine and its plan cache, so the steady state is
// schedule replay only.
func BenchmarkIndexV(b *testing.B) {
	const n, size = 16, 128
	raggedCounts := make([][]int, n)
	for i := range raggedCounts {
		raggedCounts[i] = make([]int, n)
		for j := range raggedCounts[i] {
			raggedCounts[i][j] = 1 + (i*7+j*3)%size
			if (i*n+j)%6 == 0 {
				raggedCounts[i][j] = 0
			}
		}
	}
	uniformCounts := make([][]int, n)
	for i := range uniformCounts {
		uniformCounts[i] = make([]int, n)
		for j := range uniformCounts[i] {
			uniformCounts[i][j] = size
		}
	}
	cases := []struct {
		name   string
		counts [][]int
		opts   []CollectiveOption
	}{
		{"uniform", uniformCounts, []CollectiveOption{WithRadix(2)}},
		{"ragged-bruck", raggedCounts, []CollectiveOption{WithRadix(2)}},
		{"ragged-direct", raggedCounts, []CollectiveOption{WithIndexAlgorithm(IndexDirect)}},
		{"ragged-auto", raggedCounts, []CollectiveOption{WithAuto(SP1)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNewMachine(n)
			l, err := NewIndexLayout(tc.counts)
			if err != nil {
				b.Fatal(err)
			}
			vin, err := NewRaggedBuffers(l)
			if err != nil {
				b.Fatal(err)
			}
			vout, err := NewRaggedBuffers(l.Transpose())
			if err != nil {
				b.Fatal(err)
			}
			for x, data := 0, vin.Bytes(); x < len(data); x++ {
				data[x] = byte(x*3 + 1)
			}
			var rep *Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = m.IndexVFlat(vin, vout, tc.opts...)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkConcatV is the concatenation counterpart: uniform fast path,
// padded circulant on a skewed contribution vector, exact-extent ring,
// and auto dispatch.
func BenchmarkConcatV(b *testing.B) {
	const n, size = 16, 128
	ragged := make([]int, n)
	for i := range ragged {
		ragged[i] = (i * 29) % size
	}
	uniform := make([]int, n)
	for i := range uniform {
		uniform[i] = size
	}
	cases := []struct {
		name   string
		counts []int
		opts   []CollectiveOption
	}{
		{"uniform", uniform, nil},
		{"ragged-circulant", ragged, nil},
		{"ragged-ring", ragged, []CollectiveOption{WithConcatAlgorithm(ConcatRing)}},
		{"ragged-auto", ragged, []CollectiveOption{WithAuto(SP1)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNewMachine(n)
			l, err := NewConcatLayout(tc.counts)
			if err != nil {
				b.Fatal(err)
			}
			outL, err := l.ConcatOut()
			if err != nil {
				b.Fatal(err)
			}
			vin, err := NewRaggedBuffers(l)
			if err != nil {
				b.Fatal(err)
			}
			vout, err := NewRaggedBuffers(outL)
			if err != nil {
				b.Fatal(err)
			}
			for x, data := 0, vin.Bytes(); x < len(data); x++ {
				data[x] = byte(x*5 + 2)
			}
			var rep *Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = m.ConcatVFlat(vin, vout, tc.opts...)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkReduceScatter compares the three reduce-scatter schedules —
// ring, recursive halving and the Bruck index family — on one machine,
// with the compiled plan reused across iterations, on both transports.
func BenchmarkReduceScatter(b *testing.B) {
	const n, size = 16, 128
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, alg := range []struct {
			name string
			opts []CollectiveOption
		}{
			{"ring", []CollectiveOption{WithReduceAlgorithm(ReduceRing)}},
			{"halving", []CollectiveOption{WithReduceAlgorithm(ReduceHalving)}},
			{"bruck-r2", []CollectiveOption{WithReduceAlgorithm(ReduceBruck), WithRadix(2)}},
		} {
			b.Run(alg.name+"-"+string(backend), func(b *testing.B) {
				m := MustNewMachine(n, WithTransport(backend))
				opts := append([]CollectiveOption{WithKernel(ReduceSum, Float32)}, alg.opts...)
				plan, err := m.CompileReduce(ReduceScatterKind, size, opts...)
				if err != nil {
					b.Fatal(err)
				}
				in, err := NewIndexBuffers(n, size)
				if err != nil {
					b.Fatal(err)
				}
				fillReduceInput(in, Float32, 9)
				out, err := NewConcatBuffers(n, size)
				if err != nil {
					b.Fatal(err)
				}
				var rep *Report
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err = plan.Execute(in, out)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportModel(b, rep)
			})
		}
	}
}

// BenchmarkAllReduce runs the full composition (reduce-scatter +
// circulant allgather) through a reused compiled plan, cost-model
// dispatched, on both transports.
func BenchmarkAllReduce(b *testing.B) {
	const n, size = 16, 128
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		b.Run("auto-"+string(backend), func(b *testing.B) {
			m := MustNewMachine(n, WithTransport(backend))
			plan, err := m.CompileReduce(AllReduceKind, size,
				WithKernel(ReduceSum, Float32), WithAuto(costmodel.SP1))
			if err != nil {
				b.Fatal(err)
			}
			in, err := NewIndexBuffers(n, size)
			if err != nil {
				b.Fatal(err)
			}
			fillReduceInput(in, Float32, 3)
			out, err := NewIndexBuffers(n, size)
			if err != nil {
				b.Fatal(err)
			}
			var rep *Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = plan.Execute(in, out)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportModel(b, rep)
		})
	}
}

// BenchmarkAllReducePipelined is the allreduce counterpart of
// BenchmarkIndexPipelined: the ReduceBruck reduce-scatter phase runs
// monolithic vs 4-segment pipelined at 64 KiB blocks; the concat phase
// is identical in both arms.
func BenchmarkAllReducePipelined(b *testing.B) {
	const n, size = 16, 64 << 10
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, tc := range []struct {
			name string
			segs int
		}{{"mono", 0}, {"s4", 4}} {
			b.Run(tc.name+"-"+string(backend), func(b *testing.B) {
				m := MustNewMachine(n, WithTransport(backend))
				plan, err := m.CompileReduce(AllReduceKind, size,
					WithKernel(ReduceSum, Float32), WithReduceAlgorithm(ReduceBruck),
					WithRadix(2), WithSegments(tc.segs))
				if err != nil {
					b.Fatal(err)
				}
				in, err := NewIndexBuffers(n, size)
				if err != nil {
					b.Fatal(err)
				}
				fillReduceInput(in, Float32, 5)
				out, err := NewIndexBuffers(n, size)
				if err != nil {
					b.Fatal(err)
				}
				var rep *Report
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err = plan.Execute(in, out)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportModel(b, rep)
			})
		}
	}
}

// BenchmarkSnapshotSuite runs the curated `bruckctl bench` suite
// (internal/benchsuite) under the standard testing harness: the exact
// cases snapshotted into BENCH_<area>.json stay runnable with
// `go test -bench SnapshotSuite` and comparable against the committed
// baselines with benchstat-style tooling.
func BenchmarkSnapshotSuite(b *testing.B) {
	for _, bn := range benchsuite.Suite() {
		b.Run(bn.Area+"/"+bn.Name, func(b *testing.B) {
			op, model, err := bn.Setup()
			if err != nil {
				b.Fatal(err)
			}
			if err := op(); err != nil { // warmup, mirrors benchsuite.Measure
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if model != nil {
				c1, c2 := model()
				b.ReportMetric(float64(c1), "C1-rounds")
				b.ReportMetric(float64(c2), "C2-bytes")
			}
		})
	}
}
