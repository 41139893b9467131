package bruck

import (
	"bytes"
	"fmt"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/lowerbound"
)

// reduceTestBlockLen holds whole elements of every built-in type.
const reduceTestBlockLen = 16

// allKernels enumerates every built-in (op, type) kernel pair.
var allKernels = func() []struct {
	op  ReduceOp
	typ DataType
} {
	var out []struct {
		op  ReduceOp
		typ DataType
	}
	for _, op := range []ReduceOp{ReduceSum, ReduceMin, ReduceMax} {
		for _, typ := range []DataType{Int32, Int64, Float32, Float64} {
			out = append(out, struct {
				op  ReduceOp
				typ DataType
			}{op, typ})
		}
	}
	return out
}()

// fillReduceInput writes deterministic small integer-valued elements
// (in [-8, 8)) of the given type into every block. Small integers are
// exactly representable in float32/float64 and sums of up to 16 of
// them stay exact, so byte equivalence holds across combine orders —
// which is what lets one reference serve every algorithm.
func fillReduceInput(in *Buffers, typ DataType, seed int) {
	data := in.Bytes()
	elems := len(data) / typ.Size()
	for e := 0; e < elems; e++ {
		v := (seed+e*7)%16 - 8
		switch typ {
		case Int32:
			Put(data[e*4:], []int32{int32(v)})
		case Int64:
			Put(data[e*8:], []int64{int64(v)})
		case Float32:
			Put(data[e*4:], []float32{float32(v)})
		case Float64:
			Put(data[e*8:], []float64{float64(v)})
		}
	}
}

// refReduce returns the reference reduction of chunk j: the combination
// of every rank's contribution to j, applied in rank order.
func refReduce(in *Buffers, j int, fn CombineFunc) []byte {
	acc := append([]byte(nil), in.Block(0, j)...)
	for p := 1; p < in.Procs(); p++ {
		if len(acc) > 0 {
			fn(acc, in.Block(p, j))
		}
	}
	return acc
}

// machineSizes skips (n, k) pairs the engine rejects.
func portsOK(n, k int) bool {
	maxK := n - 1
	if maxK < 1 {
		maxK = 1
	}
	return k <= maxK
}

// TestAllReduceEquivalence is the acceptance suite: AllReduce matches a
// direct reference reduce byte-for-byte for n = 1..16, k = 1..3, every
// built-in kernel, on both transports.
func TestAllReduceEquivalence(t *testing.T) {
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for k := 1; k <= 3; k++ {
			for n := 1; n <= 16; n++ {
				if !portsOK(n, k) {
					continue
				}
				m := MustNewMachine(n, Ports(k), WithTransport(backend))
				for _, ker := range allKernels {
					in, out := mustBuffers(t, n, n, reduceTestBlockLen), mustBuffers(t, n, n, reduceTestBlockLen)
					fillReduceInput(in, ker.typ, n*31+k*7)
					rep, err := m.Run(AllReduce, in, out, WithKernel(ker.op, ker.typ))
					if err != nil {
						t.Fatalf("%v n=%d k=%d %v/%v: %v", backend, n, k, ker.op, ker.typ, err)
					}
					fn, err := buffers.Kernel(ker.op, ker.typ)
					if err != nil {
						t.Fatal(err)
					}
					for j := 0; j < n; j++ {
						want := refReduce(in, j, fn)
						for i := 0; i < n; i++ {
							if !bytes.Equal(out.Block(i, j), want) {
								t.Fatalf("%v n=%d k=%d %v/%v: out[%d][%d] = %v, want %v",
									backend, n, k, ker.op, ker.typ, i, j, out.Block(i, j), want)
							}
						}
					}
					if rep.C1 < rep.C1LowerBound {
						t.Errorf("%v n=%d k=%d: C1 = %d below bound %d", backend, n, k, rep.C1, rep.C1LowerBound)
					}
					if rep.C2 < rep.C2LowerBound {
						t.Errorf("%v n=%d k=%d: C2 = %d below bound %d", backend, n, k, rep.C2, rep.C2LowerBound)
					}
				}
			}
		}
	}
}

// TestReduceScatterAlgorithmsMatchReference runs every reduce-scatter
// schedule — ring, recursive halving where the size allows, and the
// Bruck family at its radix extremes — against the reference reduce,
// and checks the measured schedule matches the compiled prediction.
func TestReduceScatterAlgorithmsMatchReference(t *testing.T) {
	fn, err := buffers.Kernel(buffers.Sum, buffers.Int32)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for k := 1; k <= 3; k++ {
			for n := 1; n <= 16; n++ {
				if !portsOK(n, k) {
					continue
				}
				m := MustNewMachine(n, Ports(k), WithTransport(backend))
				algs := []struct {
					name string
					opts []CollectiveOption
				}{
					{"ring", []CollectiveOption{WithReduceAlgorithm(ReduceRing)}},
					{"bruck r=2", []CollectiveOption{WithReduceAlgorithm(ReduceBruck), WithRadix(2)}},
					{"bruck r=n", []CollectiveOption{WithReduceAlgorithm(ReduceBruck), WithRadix(n)}},
				}
				if n&(n-1) == 0 && n > 1 {
					algs = append(algs, struct {
						name string
						opts []CollectiveOption
					}{"halving", []CollectiveOption{WithReduceAlgorithm(ReduceHalving)}})
				}
				in := mustBuffers(t, n, n, reduceTestBlockLen)
				fillReduceInput(in, Int32, n*13+k)
				want := make([][]byte, n)
				for j := 0; j < n; j++ {
					want[j] = refReduce(in, j, fn)
				}
				for _, alg := range algs {
					if n == 1 && alg.name == "bruck r=2" {
						continue // radix 2 > n is rejected for n = 1
					}
					out := mustBuffers(t, n, 1, reduceTestBlockLen)
					opts := append([]CollectiveOption{WithKernel(ReduceSum, Int32)}, alg.opts...)
					rep, err := m.Run(ReduceScatter, in, out, opts...)
					if err != nil {
						t.Fatalf("%v n=%d k=%d %s: %v", backend, n, k, alg.name, err)
					}
					for i := 0; i < n; i++ {
						if !bytes.Equal(out.Block(i, 0), want[i]) {
							t.Fatalf("%v n=%d k=%d %s: chunk %d = %v, want %v",
								backend, n, k, alg.name, i, out.Block(i, 0), want[i])
						}
					}
					// Compile without a kernel must fail; with one it must
					// predict the measured schedule exactly.
					if _, err := m.Compile(ReduceScatter, in, alg.opts...); err == nil {
						t.Fatalf("%v n=%d k=%d %s: Compile without kernel accepted", backend, n, k, alg.name)
					}
					pl := mustCompile(t, m, ReduceScatter, in, opts...)
					if rep.C1 != pl.Rounds() || rep.C2 != pl.PredictedC2() {
						t.Errorf("%v n=%d k=%d %s: measured (C1, C2) = (%d, %d), compiled predicts (%d, %d)",
							backend, n, k, alg.name, rep.C1, rep.C2, pl.Rounds(), pl.PredictedC2())
					}
					if rep.C2 < lowerbound.ReduceScatterVolume(n, reduceTestBlockLen, k) {
						t.Errorf("%v n=%d k=%d %s: C2 = %d below the send-side bound", backend, n, k, alg.name, rep.C2)
					}
				}
			}
		}
	}
}

// TestAllReduceLegacyMatchesFlat pins the reduce-scatter + allgather
// composition to its parts: every output row of AllReduce equals the
// ReduceScatter result gathered everywhere.
func TestAllReduceLegacyMatchesFlat(t *testing.T) {
	const n, bl = 6, 8
	m := MustNewMachine(n, Ports(2))
	in, chunks, full := mustBuffers(t, n, n, bl), mustBuffers(t, n, 1, bl), mustBuffers(t, n, n, bl)
	fillReduceInput(in, Int32, 5)
	rsRep := mustRun(t, m, ReduceScatter, in, chunks, WithKernel(ReduceSum, Int32))
	arRep := mustRun(t, m, AllReduce, in, full, WithKernel(ReduceSum, Int32))
	checkConcat(t, n, chunks, full)
	if arRep.C1 <= rsRep.C1 {
		t.Errorf("allreduce C1 = %d should exceed reduce-scatter C1 = %d (it appends the concatenation)", arRep.C1, rsRep.C1)
	}
}

// TestReduceZeroBlockLen pins the zero-length edge: a zero block size
// must neither invoke the kernel on empty slabs nor fail — empty
// messages keep the round structure (the pool's zero-length fast path)
// and every output stays empty.
func TestReduceZeroBlockLen(t *testing.T) {
	for _, alg := range []ReduceAlgorithm{ReduceRing, ReduceHalving, ReduceBruck} {
		calls := 0
		counting := func(dst, src []byte) { calls++ }
		m := MustNewMachine(4, Ports(2))
		in := mustBuffers(t, 4, 4, 0)
		rep, err := m.Run(AllReduce, in, mustBuffers(t, 4, 4, 0), WithReduceAlgorithm(alg), WithCombine(counting))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if calls != 0 {
			t.Errorf("%v: kernel invoked %d times on empty slabs", alg, calls)
		}
		if rep.C2 != 0 {
			t.Errorf("%v: C2 = %d for zero-length blocks", alg, rep.C2)
		}
		if rep.C1 == 0 {
			t.Errorf("%v: round structure collapsed for zero-length blocks", alg)
		}
		// Without any kernel at all, a zero block size is still fine.
		if _, err := m.Run(ReduceScatter, in, mustBuffers(t, 4, 1, 0), WithReduceAlgorithm(alg)); err != nil {
			t.Errorf("%v: kernel-less zero-length reduce-scatter failed: %v", alg, err)
		}
	}
}

// TestRunPlansMixesReductions drives an index plan, a concat plan and
// an allreduce plan on three disjoint groups through one RunPlans pass
// and verifies all three against their defining permutations.
func TestRunPlansMixesReductions(t *testing.T) {
	const per, bl = 4, 8
	m := MustNewMachine(3 * per)
	groups := make([]*Group, 3)
	for gi := range groups {
		ids := make([]int, per)
		for i := range ids {
			ids[i] = gi*per + i
		}
		g, err := m.NewGroup(ids)
		if err != nil {
			t.Fatal(err)
		}
		groups[gi] = g
	}
	idxIn, catIn, redIn := input(t, per, per, bl, 0), input(t, per, 1, bl, 1), mustBuffers(t, per, per, bl)
	idxOut, catOut, redOut := mustBuffers(t, per, per, bl), mustBuffers(t, per, per, bl), mustBuffers(t, per, per, bl)
	fillReduceInput(redIn, Int64, 3)
	plans := []*Plan{
		mustCompile(t, m, Index, idxIn, OnGroup(groups[0])),
		mustCompile(t, m, Concat, catIn, OnGroup(groups[1])),
		mustCompile(t, m, AllReduce, redIn, OnGroup(groups[2]), WithKernel(ReduceMax, Int64)),
	}
	for i, io := range [][2]*Buffers{{idxIn, idxOut}, {catIn, catOut}, {redIn, redOut}} {
		if err := plans[i].Bind(io[0], io[1]); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := m.RunPlans(plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	checkIndex(t, per, idxIn, idxOut)
	checkConcat(t, per, catIn, catOut)
	fn, err := buffers.Kernel(buffers.Max, buffers.Int64)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < per; j++ {
		want := refReduce(redIn, j, fn)
		for i := 0; i < per; i++ {
			if !bytes.Equal(redOut.Block(i, j), want) {
				t.Fatalf("allreduce out[%d][%d] = %v, want %v", i, j, redOut.Block(i, j), want)
			}
		}
	}
	if reports[2].C2LowerBound != lowerbound.AllReduceVolume(per, bl, 1) {
		t.Errorf("allreduce report lower bound %d wrong", reports[2].C2LowerBound)
	}
}

// TestAutoReduceDispatch checks that the cost-model dispatcher never
// does worse than any explicit candidate, picks a log-round schedule on
// a latency-bound profile, and memoizes its verdict.
func TestAutoReduceDispatch(t *testing.T) {
	const n, bl = 16, 64
	m := MustNewMachine(n)
	in, kernel := mustBuffers(t, n, n, bl), WithKernel(ReduceSum, Float64)

	auto := mustCompile(t, m, ReduceScatter, in, kernel, WithAuto(costmodel.HighLatency))
	for _, copts := range [][]CollectiveOption{
		{kernel, WithReduceAlgorithm(ReduceRing)},
		{kernel, WithReduceAlgorithm(ReduceHalving)},
		{kernel, WithReduceAlgorithm(ReduceBruck), WithRadix(2)},
		{kernel, WithReduceAlgorithm(ReduceBruck), WithRadix(n)},
	} {
		pl := mustCompile(t, m, ReduceScatter, in, copts...)
		if auto.Time(costmodel.HighLatency) > pl.Time(costmodel.HighLatency)+1e-15 {
			t.Errorf("auto picked %s (%g), worse than %s (%g)",
				auto.Algorithm(), auto.Time(costmodel.HighLatency), pl.Algorithm(), pl.Time(costmodel.HighLatency))
		}
	}
	if auto.Algorithm() == "ring" {
		t.Errorf("latency-bound profile picked the %d-round ring", n-1)
	}
	if again := mustCompile(t, m, ReduceScatter, in, kernel, WithAuto(costmodel.HighLatency)); again != auto {
		t.Error("auto verdict was not memoized")
	}

	// A bandwidth-bound profile prefers a volume-optimal schedule.
	cheap := mustCompile(t, m, ReduceScatter, in, kernel, WithAuto(costmodel.LowLatency))
	if got := cheap.PredictedC2(); got != (n-1)*bl {
		t.Errorf("bandwidth-bound verdict %s has C2 = %d, want the volume-optimal %d", cheap.Algorithm(), got, (n-1)*bl)
	}
}

// TestReducePlanCacheIdentity pins the caching rules: built-in kernel
// configurations hit the cache, user kernels never do.
func TestReducePlanCacheIdentity(t *testing.T) {
	const n, bl = 8, 16
	m := MustNewMachine(n)
	in, sum := mustBuffers(t, n, n, bl), WithKernel(ReduceSum, Int32)
	a := mustCompile(t, m, AllReduce, in, sum)
	if b := mustCompile(t, m, AllReduce, in, sum); a != b {
		t.Error("identical built-in kernel configurations compiled twice")
	}
	if c := mustCompile(t, m, AllReduce, in, WithKernel(ReduceMin, Int32)); c == a {
		t.Error("different kernels shared one plan")
	}
	// Option fields the plan ignores are normalized out of the key: a
	// radix on the ring schedule, a last-round policy on reduce-scatter.
	ringA := mustCompile(t, m, ReduceScatter, in, sum, WithReduceAlgorithm(ReduceRing))
	ringB := mustCompile(t, m, ReduceScatter, in, sum, WithReduceAlgorithm(ReduceRing), WithRadix(5), WithLastRoundPolicy(LastRoundMinVolume))
	if ringA != ringB {
		t.Error("ignored option fields fragmented the reduce-plan cache")
	}
	user := func(dst, src []byte) {}
	if d, e := mustCompile(t, m, AllReduce, in, WithCombine(user)), mustCompile(t, m, AllReduce, in, WithCombine(user)); d == e {
		t.Error("user-kernel plans must not be cached")
	}
}

// TestReduceValidation exercises the compile- and execute-time error
// paths of the reductions.
func TestReduceValidation(t *testing.T) {
	const n, bl = 6, 16
	m := MustNewMachine(n)
	in, outRS, outAR := mustBuffers(t, n, n, bl), mustBuffers(t, n, 1, bl), mustBuffers(t, n, n, bl)
	sum := WithKernel(ReduceSum, Int32)
	for _, c := range []struct {
		name    string
		op      Op
		in, out *Buffers
		opts    []CollectiveOption
	}{
		{"reduce without a kernel", ReduceScatter, in, outRS, nil},
		{"halving on a non-power-of-two group", ReduceScatter, in, outRS, []CollectiveOption{WithKernel(ReduceSum, Float64), WithReduceAlgorithm(ReduceHalving)}},
		{"block size not divisible by the element size", ReduceScatter, mustBuffers(t, n, n, 10), mustBuffers(t, n, 1, 10), []CollectiveOption{WithKernel(ReduceSum, Float64)}},
		{"index-shaped output for reduce-scatter", ReduceScatter, in, outAR, []CollectiveOption{sum}},
		{"concat-shaped output for allreduce", AllReduce, in, outRS, []CollectiveOption{sum}},
		{"nil output", ReduceScatter, in, nil, []CollectiveOption{sum}},
		{"radix above n", ReduceScatter, in, outRS, []CollectiveOption{sum, WithReduceAlgorithm(ReduceBruck), WithRadix(n + 1)}},
	} {
		if _, err := m.Run(c.op, c.in, c.out, c.opts...); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	pl := mustCompile(t, m, ReduceScatter, in, sum)
	if err := pl.Bind(in, outAR); err == nil {
		t.Error("Bind accepted an index-shaped output on a reduce-scatter plan")
	}
	if err := pl.Bind(in, outRS); err != nil {
		t.Errorf("Bind rejected the correct shapes: %v", err)
	}
}

// TestReduceOnGroup runs a reduction on a strict subgroup, with
// out-of-group processors idle.
func TestReduceOnGroup(t *testing.T) {
	const n, per, bl = 8, 4, 8
	m := MustNewMachine(n)
	g, err := m.NewGroup([]int{1, 3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	in, out := mustBuffers(t, per, per, bl), mustBuffers(t, per, 1, bl)
	fillReduceInput(in, Float32, 11)
	mustRun(t, m, ReduceScatter, in, out, OnGroup(g), WithKernel(ReduceMin, Float32))
	fn, err := buffers.Kernel(buffers.Min, buffers.Float32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < per; i++ {
		if want := refReduce(in, i, fn); !bytes.Equal(out.Block(i, 0), want) {
			t.Fatalf("group chunk %d = %v, want %v", i, out.Block(i, 0), want)
		}
	}
}

// TestReduceReportsAgainstBounds sweeps the compiled predictions
// against the reduction lower bounds.
func TestReduceReportsAgainstBounds(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for n := 2; n <= 16; n++ {
			if !portsOK(n, k) {
				continue
			}
			m := MustNewMachine(n, Ports(k))
			in := mustBuffers(t, n, n, reduceTestBlockLen)
			for _, op := range []Op{ReduceScatter, AllReduce} {
				pl := mustCompile(t, m, op, in, WithKernel(ReduceSum, Int32))
				c1lb, c2lb := lowerbound.AllReduceRounds(n, k), lowerbound.AllReduceVolume(n, reduceTestBlockLen, k)
				if op == ReduceScatter {
					c1lb, c2lb = lowerbound.ReduceScatterRounds(n, k), lowerbound.ReduceScatterVolume(n, reduceTestBlockLen, k)
				}
				if pl.Rounds() < c1lb {
					t.Errorf("%v n=%d k=%d: C1 = %d below bound %d", op, n, k, pl.Rounds(), c1lb)
				}
				if pl.PredictedC2() < c2lb {
					t.Errorf("%v n=%d k=%d: C2 = %d below bound %d", op, n, k, pl.PredictedC2(), c2lb)
				}
				if pl.C2LowerBound() != c2lb {
					t.Errorf("%v n=%d k=%d: plan carries bound %d, want %d", op, n, k, pl.C2LowerBound(), c2lb)
				}
			}
		}
	}
}

// TestReduceAlgorithmNames pins the reporting surface.
func TestReduceAlgorithmNames(t *testing.T) {
	m := MustNewMachine(8)
	in := mustBuffers(t, 8, 8, 8)
	for _, tc := range []struct {
		op   Op
		alg  ReduceAlgorithm
		name string
	}{
		{ReduceScatter, ReduceRing, "ring"},
		{ReduceScatter, ReduceHalving, "halving"},
		{AllReduce, ReduceBruck, "bruck"},
	} {
		pl := mustCompile(t, m, tc.op, in, WithKernel(ReduceSum, Int32), WithReduceAlgorithm(tc.alg))
		if pl.Op() != tc.op.String() || pl.Algorithm() != tc.name {
			t.Errorf("plan reports (%s, %s), want (%v, %s)", pl.Op(), pl.Algorithm(), tc.op, tc.name)
		}
	}
	if s := fmt.Sprint(ReduceScatter, AllReduce); s != "reduce-scatter allreduce" {
		t.Errorf("op strings: %q", s)
	}
}
