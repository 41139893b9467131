// Package benchsuite is the curated benchmark suite behind `bruckctl
// bench`: the flat index/concat, plan-reuse, V-layout, reduction and
// concurrent-plan measurements that back the repo's perf claims, runnable
// from a plain binary (no `go test` harness) so CI can snapshot them as
// BENCH_<area>.json trajectories.
//
// The suite is a table: each Bench is a collective.Spec on a machine
// shape plus the mode that says what one operation is, and one Setup
// serves every row, taking its memory from the oracle's allocator
// (collective.Plan.Alloc). A snapshot case carries the measured timings
// and the deterministic C1/C2 counts of the last run. The suite
// deliberately mirrors the shapes of the in-repo `go test -bench` suite
// (bench_test.go) at n=16, b=128: same schedules, same steady states.
//
// Package bruck itself is off-limits here: bench_test.go is an
// in-package test file, so importing the root package from a package
// that bench_test.go (or CI test code) reaches would cycle. Everything
// is built from the internal packages directly.
package benchsuite

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bruck/internal/benchsnap"
	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// mode says what one timed operation of a Bench is.
type mode int

const (
	planReuse      mode = iota // execute one precompiled plan
	compilePerCall             // compile the spec, then execute, on every call
	compileOnly                // compile the spec, execute nothing
	concurrent                 // one engine run hosting the plan on each half of the machine
)

// Bench is one suite entry: the spec runs on n processors over the
// transport the name ends in.
type Bench struct {
	Area, Name string
	n          int
	backend    mpsim.Backend
	spec       collective.Spec
	mode       mode
}

// Setup builds the steady state and returns the operation to time plus
// a model callback reporting the C1/C2 counts of the operation's last
// run (of the compiled plan, for compile-only).
func (bn Bench) Setup() (op func() error, model func() (c1, c2 int), err error) {
	opts := []mpsim.Option{mpsim.WithTransport(bn.backend)}
	if t := bn.spec.Topology; t != nil {
		opts = append(opts, mpsim.WithTopology(t.GroupAssignment()))
	}
	e, err := mpsim.New(bn.n, opts...)
	if err != nil {
		return nil, nil, err
	}
	groups := []*mpsim.Group{mpsim.WorldGroup(bn.n)}
	if bn.mode == concurrent {
		ids := groups[0].IDs()
		lo, err := mpsim.NewGroup(ids[:bn.n/2], bn.n)
		if err != nil {
			return nil, nil, err
		}
		hi, err := mpsim.NewGroup(ids[bn.n/2:], bn.n)
		if err != nil {
			return nil, nil, err
		}
		groups = []*mpsim.Group{lo, hi}
	}
	fill := collective.Labels
	if bn.spec.Reduce.Kernel != nil {
		fill = buffers.Float32.Fill
	}
	plans := make([]*collective.Plan, len(groups))
	var mem *collective.Memory
	for i, g := range groups {
		if plans[i], err = collective.Compile(e, g, bn.spec); err != nil {
			return nil, nil, err
		}
		if mem, err = plans[i].Alloc(); err != nil {
			return nil, nil, err
		}
		plans[i].Fill(mem, fill)
		if bn.mode == concurrent {
			if err = plans[i].Bind(mem.Flat()); err != nil {
				return nil, nil, err
			}
		}
	}
	pl, results := plans[0], make([]*collective.Result, 1)
	switch bn.mode {
	case compileOnly:
		op = func() (err error) { pl, err = collective.Compile(e, groups[0], bn.spec); return err }
		return op, func() (int, int) { return pl.Rounds(), pl.PredictedC2() }, nil
	case compilePerCall:
		op = func() error {
			pl, err := collective.Compile(e, groups[0], bn.spec)
			if err == nil {
				results[0], err = pl.Run(mem)
			}
			return err
		}
	case concurrent:
		op = func() (err error) { results, err = collective.ExecutePlans(e, plans); return err }
	default:
		op = func() (err error) { results[0], err = pl.Run(mem); return err }
	}
	return op, func() (c1, c2 int) {
		for _, r := range results {
			if r != nil {
				c1 = max(c1, r.C1) // groups run concurrently: rounds overlap
				c2 += r.C2         // volume adds up
			}
		}
		return c1, c2
	}, nil
}

// Options tunes Measure. Zero values mean "one iteration, no time
// floor".
type Options struct {
	// MinIters is the minimum number of timed iterations.
	MinIters int
	// MinTime is the minimum accumulated timed duration.
	MinTime time.Duration
}

// ShortOptions is the CI smoke configuration; DefaultOptions the
// baseline-quality one.
func ShortOptions() Options   { return Options{MinIters: 5} }
func DefaultOptions() Options { return Options{MinIters: 30, MinTime: 200 * time.Millisecond} }

// Measure runs one bench to a snapshot case: warm up once, then time
// doubling batches until the iteration and duration floors are both
// met. Allocation metrics come from the runtime's monotonic Mallocs/
// TotalAlloc counters around the timed batches, so they include the
// simulated processors' goroutines — part of the operation's real cost.
func Measure(bn Bench, opt Options) (benchsnap.Case, error) {
	op, model, err := bn.Setup()
	if err != nil {
		return benchsnap.Case{}, fmt.Errorf("%s: setup: %w", bn.Name, err)
	}
	if err := op(); err != nil { // warmup: fills caches, first model run
		return benchsnap.Case{}, fmt.Errorf("%s: warmup: %w", bn.Name, err)
	}
	minIters := opt.MinIters
	if minIters < 1 {
		minIters = 1
	}
	var (
		iters   int
		elapsed time.Duration
		mallocs uint64
		bytes   uint64
		batch   = 1
		ms      runtime.MemStats
	)
	for iters < minIters || elapsed < opt.MinTime {
		runtime.ReadMemStats(&ms)
		beforeMallocs, beforeBytes := ms.Mallocs, ms.TotalAlloc
		//lint:allow detrand ns/op is measured wall-clock by design; the snapshot gate compares allocs, not time
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return benchsnap.Case{}, fmt.Errorf("%s: iter %d: %w", bn.Name, iters+i, err)
			}
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms)
		iters += batch
		mallocs += ms.Mallocs - beforeMallocs
		bytes += ms.TotalAlloc - beforeBytes
		if batch < 1<<12 {
			batch *= 2
		}
	}
	c := benchsnap.Case{
		Name:        bn.Name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		BytesPerOp:  float64(bytes) / float64(iters),
		AllocsPerOp: float64(mallocs) / float64(iters),
	}
	if model != nil {
		c.C1, c.C2 = model()
	}
	return c, nil
}

// Areas lists the suite's areas in stable order.
func Areas() []string {
	seen := map[string]bool{}
	var areas []string
	for _, b := range Suite() {
		if !seen[b.Area] {
			seen[b.Area] = true
			areas = append(areas, b.Area)
		}
	}
	sort.Strings(areas)
	return areas
}

// ByArea returns the suite entries of one area.
func ByArea(area string) []Bench {
	var out []Bench
	for _, b := range Suite() {
		if b.Area == area {
			out = append(out, b)
		}
	}
	return out
}

// The suite's common shape: 16 processors, 128-byte blocks, matching
// bench_test.go's BenchmarkIndex/Concat/ReduceScatter configuration;
// the pipeline area runs the same machine at a bandwidth-bound 64 KiB.
const (
	suiteN    = 16
	suiteSize = 128
	pipeSize  = 64 << 10
)

// must unwraps the suite's own constants: a layout, topology or kernel
// below can only fail if this file is wrong.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Suite returns the full curated suite.
func Suite() []Bench {
	var s []Bench
	add := func(area, name string, backend mpsim.Backend, m mode, spec collective.Spec) {
		s = append(s, Bench{area, name + "/" + string(backend), suiteN, backend, spec, m})
	}
	index := collective.Spec{Op: collective.OpIndex, BlockLen: suiteSize, Index: collective.IndexOptions{Radix: 2}}
	concat := collective.Spec{Op: collective.OpConcat, BlockLen: suiteSize}
	sum := must(collective.KernelOptions(buffers.Sum, buffers.Float32))
	reduce := func(op collective.Op, alg collective.ReduceAlgorithm, radix int) collective.Spec {
		o := sum
		o.Algorithm, o.Radix = alg, radix
		return collective.Spec{Op: op, BlockLen: suiteSize, Reduce: o}
	}
	const chanT, slotT = mpsim.BackendChan, mpsim.BackendSlot

	// collectives: the flat paths compiling on every call, on both
	// transports (BenchmarkIndex/BenchmarkConcat); precompiled schedule
	// replay against the compile cost alone (BenchmarkIndexPlanReuse /
	// BenchmarkConcatPlanReuse steady states).
	for _, op := range []collective.Spec{index, concat} {
		add("collectives", op.Op.String()+"/flat", chanT, compilePerCall, op)
		add("collectives", op.Op.String()+"/flat", slotT, compilePerCall, op)
	}
	add("collectives", "index/plan-reuse", chanT, planReuse, index)
	add("collectives", "index/compile-only", chanT, compileOnly, index)
	add("collectives", "concat/plan-reuse", chanT, planReuse, concat)

	// Ragged V-layouts: the skewed count table of BenchmarkIndexV on the
	// padded Bruck schedule and under cost-model auto dispatch, plus the
	// circulant concatenation on a skewed contribution vector.
	counts, vector := make([][]int, suiteN), make([]int, suiteN)
	for i := range counts {
		counts[i] = make([]int, suiteN)
		for j := range counts[i] {
			counts[i][j] = 1 + (i*7+j*3)%suiteSize
			if (i*suiteN+j)%6 == 0 {
				counts[i][j] = 0
			}
		}
		vector[i] = (i * 29) % suiteSize
	}
	indexV := collective.Spec{Op: collective.OpIndexV, Layout: must(blocks.Ragged(counts)), Index: index.Index}
	add("collectives", "indexv/ragged-bruck", chanT, planReuse, indexV)
	indexV.Auto = &costmodel.SP1
	add("collectives", "indexv/ragged-auto", chanT, planReuse, indexV)
	add("collectives", "concatv/ragged-circulant", chanT, planReuse,
		collective.Spec{Op: collective.OpConcatV, Layout: must(blocks.RaggedVector(vector))})

	// Concurrent disjoint groups: one engine run hosting two bound plans
	// (BenchmarkRunPlansDisjoint's concurrent arm).
	halves := index
	halves.BlockLen = 64
	add("collectives", "runplans/concurrent-2x8", slotT, concurrent, halves)

	// reduce: the three reduce-scatter schedules of
	// BenchmarkReduceScatter, and the cost-model dispatched all-reduce on
	// both transports (BenchmarkAllReduce).
	add("reduce", "reducescatter/ring", chanT, planReuse, reduce(collective.OpReduceScatter, collective.ReduceRing, 0))
	add("reduce", "reducescatter/halving", chanT, planReuse, reduce(collective.OpReduceScatter, collective.ReduceHalving, 0))
	add("reduce", "reducescatter/bruck-r2", chanT, planReuse, reduce(collective.OpReduceScatter, collective.ReduceBruck, 2))
	auto := reduce(collective.OpAllReduce, collective.ReduceRing, 0)
	auto.Auto = &costmodel.SP1
	add("reduce", "allreduce/auto", chanT, planReuse, auto)
	add("reduce", "allreduce/auto", slotT, planReuse, auto)

	// pipeline: segment pipelining against the monolithic schedules it is
	// supposed to beat — index and allreduce at 64 KiB blocks, monolithic
	// vs 4 segments, on both plain transports. The ns/op gap is the
	// headline number `bruckctl bench -area pipeline` snapshots.
	for _, backend := range []mpsim.Backend{chanT, slotT} {
		for _, arm := range []struct {
			name string
			segs int
		}{{"mono", 0}, {"s4", 4}} {
			big, bigSum := index, reduce(collective.OpAllReduce, collective.ReduceBruck, 2)
			big.BlockLen, bigSum.BlockLen = pipeSize, pipeSize
			big.Index.Segments, bigSum.Reduce.Segments = arm.segs, arm.segs
			add("pipeline", "index/"+arm.name, backend, planReuse, big)
			add("pipeline", "allreduce/"+arm.name, backend, planReuse, bigSum)
		}
	}

	// hier: the two-level compositions against their flat counterparts on
	// a 4x4 topology whose inter-group links are ten times slower than
	// the intra ones. Both arms run on an engine tagging messages by link
	// class, so the C1/C2 counts carry each schedule's round/volume trade
	// and the wall-clock numbers the simulator cost of the extra phases.
	topo := must(costmodel.NewTopology([]int{4, 4, 4, 4}, costmodel.SP1, costmodel.Scaled(costmodel.SP1, costmodel.DefaultInterRatio)))
	for _, arm := range []struct {
		name string
		hier bool
	}{{"flat-10to1", false}, {"hier-10to1", true}} {
		for _, op := range []collective.Spec{index, concat, reduce(collective.OpAllReduce, collective.ReduceBruck, 2)} {
			op.Hierarchical, op.Topology = arm.hier, topo
			add("hier", op.Op.String()+"/"+arm.name, chanT, planReuse, op)
		}
	}
	return s
}
