// Package benchsuite is the curated benchmark suite behind `bruckctl
// bench`: the flat index/concat, plan-reuse, V-layout, reduction and
// concurrent-plan measurements that back the repo's perf claims, runnable
// from a plain binary (no `go test` harness) so CI can snapshot them as
// BENCH_<area>.json trajectories.
//
// Each Bench couples an operation closure with the analytic cost-model
// counts (C1 rounds, C2 bytes) of its last run, so a snapshot case
// carries both the measured timings and the deterministic model output
// the measurements are supposed to track. The suite deliberately
// mirrors the shapes of the in-repo `go test -bench` suite
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

// Bench is one suite entry: Setup builds the steady state and returns
// the operation to time plus a model callback reporting the C1/C2
// counts of the operation's last run (nil when the case has no
// schedule, e.g. compile-only).
type Bench struct {
	Area  string
	Name  string
	Setup func() (op func() error, model func() (c1, c2 int), err error)
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
// bench_test.go's BenchmarkIndex/Concat/ReduceScatter configuration.
const (
	suiteN    = 16
	suiteSize = 128
)

func indexInput(n, blockLen int) [][][]byte {
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

func concatInput(n, blockLen int) [][]byte {
	in := make([][]byte, n)
	for i := range in {
		in[i] = make([]byte, blockLen)
		for x := range in[i] {
			in[i][x] = byte(i + x)
		}
	}
	return in
}

// modelOf adapts a shared *Result slot into a model callback.
func modelOf(res **collective.Result) func() (int, int) {
	return func() (int, int) {
		if *res == nil {
			return 0, 0
		}
		return (*res).C1, (*res).C2
	}
}

// Suite returns the full curated suite.
func Suite() []Bench {
	var s []Bench
	s = append(s, collectivesSuite()...)
	s = append(s, reduceSuite()...)
	s = append(s, pipelineSuite()...)
	s = append(s, hierSuite()...)
	return s
}

func collectivesSuite() []Bench {
	const area = "collectives"
	var s []Bench

	// Legacy block-matrix paths vs the flat zero-copy paths, chan and
	// slot transports (the BenchmarkIndex/BenchmarkConcat comparison).
	// Both compile on every call; the legacy arms also copy the block
	// slices into a flat slab and the result back out, as the public
	// [][][]byte entry points do.
	perCall := func(name string, backend mpsim.Backend, legacy bool, spec collective.Spec, fill func() (*buffers.Buffers, error)) Bench {
		return Bench{area, name, func() (func() error, func() (int, int), error) {
			e := mpsim.MustNew(suiteN, mpsim.WithTransport(backend))
			g := mpsim.WorldGroup(suiteN)
			fin, err := fill()
			if err != nil {
				return nil, nil, err
			}
			fout, err := buffers.New(suiteN, suiteN, suiteSize)
			if err != nil {
				return nil, nil, err
			}
			var res *collective.Result
			return func() error {
				in, out := fin, fout
				if legacy {
					if in, err = fill(); err != nil {
						return err
					}
					if out, err = buffers.New(suiteN, suiteN, suiteSize); err != nil {
						return err
					}
				}
				pl, err := collective.Compile(e, g, spec)
				if err != nil {
					return err
				}
				if res, err = pl.Execute(in, out); err == nil && legacy {
					out.ToMatrix()
				}
				return err
			}, modelOf(&res), nil
		}}
	}
	matrix, vector := indexInput(suiteN, suiteSize), concatInput(suiteN, suiteSize)
	for _, op := range []struct {
		name string
		spec collective.Spec
		fill func() (*buffers.Buffers, error)
	}{
		{"index", collective.Spec{Op: collective.OpIndex, BlockLen: suiteSize, Index: collective.IndexOptions{Radix: 2}},
			func() (*buffers.Buffers, error) { return buffers.FromMatrix(matrix) }},
		{"concat", collective.Spec{Op: collective.OpConcat, BlockLen: suiteSize},
			func() (*buffers.Buffers, error) { return buffers.FromVector(vector) }},
	} {
		s = append(s, perCall(op.name+"/legacy/chan", mpsim.BackendChan, true, op.spec, op.fill),
			perCall(op.name+"/flat/chan", mpsim.BackendChan, false, op.spec, op.fill),
			perCall(op.name+"/flat/slot", mpsim.BackendSlot, false, op.spec, op.fill))
	}

	// Plan reuse: precompiled schedule replay vs compile cost
	// (BenchmarkIndexPlanReuse / BenchmarkConcatPlanReuse steady states).
	s = append(s, Bench{area, "index/plan-reuse/chan", func() (func() error, func() (int, int), error) {
		e := mpsim.MustNew(suiteN)
		g := mpsim.WorldGroup(suiteN)
		fin, err := buffers.FromMatrix(indexInput(suiteN, suiteSize))
		if err != nil {
			return nil, nil, err
		}
		fout, err := buffers.New(suiteN, suiteN, suiteSize)
		if err != nil {
			return nil, nil, err
		}
		pl, err := collective.CompileIndex(e, g, suiteSize, collective.IndexOptions{Radix: 2})
		if err != nil {
			return nil, nil, err
		}
		var res *collective.Result
		return func() error {
			var err error
			res, err = pl.Execute(fin, fout)
			return err
		}, modelOf(&res), nil
	}})
	s = append(s, Bench{area, "index/compile-only/chan", func() (func() error, func() (int, int), error) {
		e := mpsim.MustNew(suiteN)
		g := mpsim.WorldGroup(suiteN)
		opt := collective.IndexOptions{Radix: 2}
		var pl *collective.Plan
		return func() error {
				var err error
				pl, err = collective.CompileIndex(e, g, suiteSize, opt)
				return err
			}, func() (int, int) {
				if pl == nil {
					return 0, 0
				}
				return pl.Rounds(), pl.PredictedC2()
			}, nil
	}})
	s = append(s, Bench{area, "concat/plan-reuse/chan", func() (func() error, func() (int, int), error) {
		e := mpsim.MustNew(suiteN)
		g := mpsim.WorldGroup(suiteN)
		fin, err := buffers.FromVector(concatInput(suiteN, suiteSize))
		if err != nil {
			return nil, nil, err
		}
		fout, err := buffers.New(suiteN, suiteN, suiteSize)
		if err != nil {
			return nil, nil, err
		}
		pl, err := collective.CompileConcat(e, g, suiteSize, collective.ConcatOptions{})
		if err != nil {
			return nil, nil, err
		}
		var res *collective.Result
		return func() error {
			var err error
			res, err = pl.Execute(fin, fout)
			return err
		}, modelOf(&res), nil
	}})

	// Ragged V-layouts: the skewed count table of BenchmarkIndexV on the
	// padded Bruck schedule and under cost-model auto dispatch, plus the
	// circulant concatenation on a skewed contribution vector. Plans come
	// from a cache, so the steady state is schedule replay.
	raggedIndexLayout := func() (*blocks.Layout, error) {
		counts := make([][]int, suiteN)
		for i := range counts {
			counts[i] = make([]int, suiteN)
			for j := range counts[i] {
				counts[i][j] = 1 + (i*7+j*3)%suiteSize
				if (i*suiteN+j)%6 == 0 {
					counts[i][j] = 0
				}
			}
		}
		return blocks.Ragged(counts)
	}
	vSetup := func(auto bool) (func() error, func() (int, int), error) {
		e := mpsim.MustNew(suiteN)
		g := mpsim.WorldGroup(suiteN)
		l, err := raggedIndexLayout()
		if err != nil {
			return nil, nil, err
		}
		vin, err := buffers.NewRagged(l)
		if err != nil {
			return nil, nil, err
		}
		vout, err := buffers.NewRagged(l.Transpose())
		if err != nil {
			return nil, nil, err
		}
		for x, data := 0, vin.Bytes(); x < len(data); x++ {
			data[x] = byte(x*3 + 1)
		}
		spec := collective.Spec{Op: collective.OpIndexV, Layout: l, Index: collective.IndexOptions{Radix: 2}}
		if auto {
			spec.Auto = &costmodel.SP1
		}
		pl, err := collective.Compile(e, g, spec)
		if err != nil {
			return nil, nil, err
		}
		var res *collective.Result
		return func() error {
			var err error
			res, err = pl.ExecuteV(vin, vout)
			return err
		}, modelOf(&res), nil
	}
	s = append(s, Bench{area, "indexv/ragged-bruck/chan", func() (func() error, func() (int, int), error) {
		return vSetup(false)
	}})
	s = append(s, Bench{area, "indexv/ragged-auto/chan", func() (func() error, func() (int, int), error) {
		return vSetup(true)
	}})
	s = append(s, Bench{area, "concatv/ragged-circulant/chan", func() (func() error, func() (int, int), error) {
		e := mpsim.MustNew(suiteN)
		g := mpsim.WorldGroup(suiteN)
		counts := make([][]int, suiteN)
		for i := range counts {
			counts[i] = []int{(i * 29) % suiteSize}
		}
		l, err := blocks.Ragged(counts)
		if err != nil {
			return nil, nil, err
		}
		outL, err := l.ConcatOut()
		if err != nil {
			return nil, nil, err
		}
		vin, err := buffers.NewRagged(l)
		if err != nil {
			return nil, nil, err
		}
		vout, err := buffers.NewRagged(outL)
		if err != nil {
			return nil, nil, err
		}
		for x, data := 0, vin.Bytes(); x < len(data); x++ {
			data[x] = byte(x*5 + 2)
		}
		pl, err := collective.Compile(e, g, collective.Spec{Op: collective.OpConcatV, Layout: l})
		if err != nil {
			return nil, nil, err
		}
		var res *collective.Result
		return func() error {
			var err error
			res, err = pl.ExecuteV(vin, vout)
			return err
		}, modelOf(&res), nil
	}})

	// Concurrent disjoint groups: one engine run hosting two bound plans
	// (BenchmarkRunPlansDisjoint's concurrent arm).
	s = append(s, Bench{area, "runplans/concurrent-2x8/slot", func() (func() error, func() (int, int), error) {
		const per, size = 8, 64
		e := mpsim.MustNew(2*per, mpsim.WithTransport(mpsim.BackendSlot))
		lo := make([]int, per)
		hi := make([]int, per)
		for i := 0; i < per; i++ {
			lo[i], hi[i] = i, per+i
		}
		gLo, err := mpsim.NewGroup(lo, 2*per)
		if err != nil {
			return nil, nil, err
		}
		gHi, err := mpsim.NewGroup(hi, 2*per)
		if err != nil {
			return nil, nil, err
		}
		opt := collective.IndexOptions{Radix: 2}
		plLo, err := collective.CompileIndex(e, gLo, size, opt)
		if err != nil {
			return nil, nil, err
		}
		plHi, err := collective.CompileIndex(e, gHi, size, opt)
		if err != nil {
			return nil, nil, err
		}
		for _, pl := range []*collective.Plan{plLo, plHi} {
			in, err := buffers.FromMatrix(indexInput(per, size))
			if err != nil {
				return nil, nil, err
			}
			out, err := buffers.New(per, per, size)
			if err != nil {
				return nil, nil, err
			}
			if err := pl.Bind(in, out); err != nil {
				return nil, nil, err
			}
		}
		plans := []*collective.Plan{plLo, plHi}
		var results []*collective.Result
		return func() error {
				var err error
				results, err = collective.ExecutePlans(e, plans)
				return err
			}, func() (int, int) {
				c1, c2 := 0, 0
				for _, r := range results {
					if r.C1 > c1 {
						c1 = r.C1 // groups run concurrently: rounds overlap
					}
					c2 += r.C2 // volume adds up
				}
				return c1, c2
			}, nil
	}})

	return s
}

// pipelineSuite measures segment pipelining against the monolithic
// schedules it is supposed to beat: plan-reused index and allreduce at
// a bandwidth-bound 64 KiB block size, monolithic vs 4 segments, on
// both plain transports. The pipelined arms also use the owned-payload
// exchange, so the ns/op gap is the headline number `bruckctl bench
// -area pipeline` snapshots and the compare gate tracks.
func pipelineSuite() []Bench {
	const (
		area      = "pipeline"
		pipeN     = 16
		pipeSize  = 64 << 10
		pipeSegs  = 4
		pipeRadix = 2
	)
	var s []Bench
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		backend := backend
		for _, arm := range []struct {
			name string
			segs int
		}{{"mono", 0}, {"s4", pipeSegs}} {
			arm := arm
			s = append(s, Bench{area, "index/" + arm.name + "/" + string(backend), func() (func() error, func() (int, int), error) {
				e := mpsim.MustNew(pipeN, mpsim.WithTransport(backend))
				g := mpsim.WorldGroup(pipeN)
				opt := collective.IndexOptions{Radix: pipeRadix, Segments: arm.segs}
				pl, err := collective.CompileIndex(e, g, pipeSize, opt)
				if err != nil {
					return nil, nil, err
				}
				fin, err := buffers.FromMatrix(indexInput(pipeN, pipeSize))
				if err != nil {
					return nil, nil, err
				}
				fout, err := buffers.New(pipeN, pipeN, pipeSize)
				if err != nil {
					return nil, nil, err
				}
				var res *collective.Result
				return func() error {
					var err error
					res, err = pl.Execute(fin, fout)
					return err
				}, modelOf(&res), nil
			}})
			s = append(s, Bench{area, "allreduce/" + arm.name + "/" + string(backend), func() (func() error, func() (int, int), error) {
				e := mpsim.MustNew(pipeN, mpsim.WithTransport(backend))
				g := mpsim.WorldGroup(pipeN)
				kernel, err := buffers.Kernel(buffers.Sum, buffers.Float32)
				if err != nil {
					return nil, nil, err
				}
				opt := collective.ReduceOptions{
					Kernel: kernel, ElemSize: buffers.Float32.Size(), KernelKey: "sum/float32",
					Algorithm: collective.ReduceBruck, Radix: pipeRadix, Segments: arm.segs,
				}
				pl, err := collective.CompileReduce(e, g, collective.AllReduceKind, pipeSize, opt)
				if err != nil {
					return nil, nil, err
				}
				in, err := buffers.FromMatrix(indexInput(pipeN, pipeSize))
				if err != nil {
					return nil, nil, err
				}
				out, err := buffers.New(pipeN, pipeN, pipeSize)
				if err != nil {
					return nil, nil, err
				}
				var res *collective.Result
				return func() error {
					var err error
					res, err = pl.Execute(in, out)
					return err
				}, modelOf(&res), nil
			}})
		}
	}
	return s
}

// hierSuite pits the two-level hierarchical compositions against their
// flat counterparts on a 4x4 topology whose inter-group links are ten
// times slower than the intra ones (the paper's Section 2 cost model,
// per link class). Both arms run plan-reused on the channel transport
// with the engine tagging messages by link class, so the snapshot's
// C1/C2 counts carry each schedule's round/volume trade and the
// wall-clock numbers track the simulator cost of the extra phases.
func hierSuite() []Bench {
	const area = "hier"
	topoOf := func() (*costmodel.Topology, error) {
		intra := costmodel.SP1
		return costmodel.NewTopology([]int{4, 4, 4, 4}, intra, costmodel.Scaled(intra, costmodel.DefaultInterRatio))
	}
	engineOf := func(topo *costmodel.Topology) (*mpsim.Engine, *mpsim.Group, error) {
		e, err := mpsim.New(suiteN, mpsim.WithTopology(topo.GroupAssignment()))
		if err != nil {
			return nil, nil, err
		}
		return e, mpsim.WorldGroup(suiteN), nil
	}
	indexSetup := func(hier bool) (func() error, func() (int, int), error) {
		topo, err := topoOf()
		if err != nil {
			return nil, nil, err
		}
		e, g, err := engineOf(topo)
		if err != nil {
			return nil, nil, err
		}
		var pl *collective.Plan
		if hier {
			pl, err = collective.CompileHierarchicalIndex(e, g, suiteSize, topo, collective.HierOptions{})
		} else {
			pl, err = collective.CompileIndex(e, g, suiteSize, collective.IndexOptions{Radix: 2})
		}
		if err != nil {
			return nil, nil, err
		}
		fin, err := buffers.FromMatrix(indexInput(suiteN, suiteSize))
		if err != nil {
			return nil, nil, err
		}
		fout, err := buffers.New(suiteN, suiteN, suiteSize)
		if err != nil {
			return nil, nil, err
		}
		var res *collective.Result
		return func() error {
			var err error
			res, err = pl.Execute(fin, fout)
			return err
		}, modelOf(&res), nil
	}
	concatSetup := func(hier bool) (func() error, func() (int, int), error) {
		topo, err := topoOf()
		if err != nil {
			return nil, nil, err
		}
		e, g, err := engineOf(topo)
		if err != nil {
			return nil, nil, err
		}
		var pl *collective.Plan
		if hier {
			pl, err = collective.Compile(e, g, collective.Spec{Op: collective.OpConcat, BlockLen: suiteSize, Hierarchical: true, Topology: topo})
		} else {
			pl, err = collective.CompileConcat(e, g, suiteSize, collective.ConcatOptions{})
		}
		if err != nil {
			return nil, nil, err
		}
		fin, err := buffers.FromVector(concatInput(suiteN, suiteSize))
		if err != nil {
			return nil, nil, err
		}
		fout, err := buffers.New(suiteN, suiteN, suiteSize)
		if err != nil {
			return nil, nil, err
		}
		var res *collective.Result
		return func() error {
			var err error
			res, err = pl.Execute(fin, fout)
			return err
		}, modelOf(&res), nil
	}
	reduceSetup := func(hier bool) (func() error, func() (int, int), error) {
		topo, err := topoOf()
		if err != nil {
			return nil, nil, err
		}
		e, g, err := engineOf(topo)
		if err != nil {
			return nil, nil, err
		}
		kernel, err := buffers.Kernel(buffers.Sum, buffers.Float32)
		if err != nil {
			return nil, nil, err
		}
		opt := collective.ReduceOptions{
			Kernel: kernel, ElemSize: buffers.Float32.Size(), KernelKey: "sum/float32",
		}
		var pl *collective.Plan
		if hier {
			pl, err = collective.CompileHierarchicalReduce(e, g, collective.AllReduceKind, suiteSize, topo, opt)
		} else {
			opt.Algorithm = collective.ReduceBruck
			opt.Radix = 2
			pl, err = collective.CompileReduce(e, g, collective.AllReduceKind, suiteSize, opt)
		}
		if err != nil {
			return nil, nil, err
		}
		in, err := buffers.FromMatrix(indexInput(suiteN, suiteSize))
		if err != nil {
			return nil, nil, err
		}
		out, err := buffers.New(suiteN, suiteN, suiteSize)
		if err != nil {
			return nil, nil, err
		}
		var res *collective.Result
		return func() error {
			var err error
			res, err = pl.Execute(in, out)
			return err
		}, modelOf(&res), nil
	}
	var s []Bench
	for _, arm := range []struct {
		name string
		hier bool
	}{{"flat-10to1", false}, {"hier-10to1", true}} {
		arm := arm
		s = append(s, Bench{area, "index/" + arm.name + "/chan", func() (func() error, func() (int, int), error) {
			return indexSetup(arm.hier)
		}})
		s = append(s, Bench{area, "concat/" + arm.name + "/chan", func() (func() error, func() (int, int), error) {
			return concatSetup(arm.hier)
		}})
		s = append(s, Bench{area, "allreduce/" + arm.name + "/chan", func() (func() error, func() (int, int), error) {
			return reduceSetup(arm.hier)
		}})
	}
	return s
}

func reduceSuite() []Bench {
	const area = "reduce"
	kernel, err := buffers.Kernel(buffers.Sum, buffers.Float32)
	if err != nil {
		panic(err) // built-in kernel; cannot fail
	}
	baseOpt := collective.ReduceOptions{
		Kernel:    kernel,
		ElemSize:  buffers.Float32.Size(),
		KernelKey: "sum/float32",
	}
	fill := func(in *buffers.Buffers, seed int) {
		vals := make([]float32, suiteSize/4)
		for i := 0; i < suiteN; i++ {
			for j := 0; j < suiteN; j++ {
				for x := range vals {
					vals[x] = float32((i*31+j*7+x+seed)%97) / 3
				}
				buffers.PutFloat32s(in.Block(i, j), vals)
			}
		}
	}
	var s []Bench

	// The three reduce-scatter schedules of BenchmarkReduceScatter, plan
	// reused, on the channel transport.
	for _, alg := range []struct {
		name string
		opt  func(collective.ReduceOptions) collective.ReduceOptions
	}{
		{"ring", func(o collective.ReduceOptions) collective.ReduceOptions {
			o.Algorithm = collective.ReduceRing
			return o
		}},
		{"halving", func(o collective.ReduceOptions) collective.ReduceOptions {
			o.Algorithm = collective.ReduceHalving
			return o
		}},
		{"bruck-r2", func(o collective.ReduceOptions) collective.ReduceOptions {
			o.Algorithm = collective.ReduceBruck
			o.Radix = 2
			return o
		}},
	} {
		alg := alg
		s = append(s, Bench{area, "reducescatter/" + alg.name + "/chan", func() (func() error, func() (int, int), error) {
			e := mpsim.MustNew(suiteN)
			g := mpsim.WorldGroup(suiteN)
			pl, err := collective.CompileReduce(e, g, collective.ReduceScatterKind, suiteSize, alg.opt(baseOpt))
			if err != nil {
				return nil, nil, err
			}
			in, err := buffers.New(suiteN, suiteN, suiteSize)
			if err != nil {
				return nil, nil, err
			}
			fill(in, 9)
			out, err := buffers.New(suiteN, 1, suiteSize)
			if err != nil {
				return nil, nil, err
			}
			var res *collective.Result
			return func() error {
				var err error
				res, err = pl.Execute(in, out)
				return err
			}, modelOf(&res), nil
		}})
	}

	// Cost-model dispatched all-reduce on both transports
	// (BenchmarkAllReduce).
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		backend := backend
		s = append(s, Bench{area, "allreduce/auto/" + string(backend), func() (func() error, func() (int, int), error) {
			e := mpsim.MustNew(suiteN, mpsim.WithTransport(backend))
			g := mpsim.WorldGroup(suiteN)
			pl, err := collective.Compile(e, g, collective.Spec{Op: collective.OpAllReduce, BlockLen: suiteSize, Reduce: baseOpt, Auto: &costmodel.SP1})
			if err != nil {
				return nil, nil, err
			}
			in, err := buffers.New(suiteN, suiteN, suiteSize)
			if err != nil {
				return nil, nil, err
			}
			fill(in, 3)
			out, err := buffers.New(suiteN, suiteN, suiteSize)
			if err != nil {
				return nil, nil, err
			}
			var res *collective.Result
			return func() error {
				var err error
				res, err = pl.Execute(in, out)
				return err
			}, modelOf(&res), nil
		}})
	}

	return s
}
