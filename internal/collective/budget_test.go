package collective

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// The budget ledger: the exact allocation count, C1/C2 and bytes moved
// of one operation of every shape the repo makes a cost claim about, on
// 16 processors. TestBudget asserts all four with equality, so a higher
// count fails as a regression and a lower one fails until its row is
// tightened — the rows only ever move down. Wall-clock is not here:
// benchmark/ is the only code that times a collective.

// budgetMode says what one operation of a row is.
type budgetMode int

const (
	planReuse      budgetMode = iota // execute one precompiled plan
	compilePerCall                   // compile the spec, then execute, on every call
	compileOnly                      // compile the spec, execute nothing
	concurrent                       // one engine run hosting the plan on each half of the machine
)

// budgetN is the machine every row runs on.
const budgetN = 16

type budgetRow struct {
	name   string
	spec   Spec // a Topology also tags the engine's messages by link class
	mode   budgetMode
	allocs int // per operation, steady state
	c1, c2 int // of the operation's last run (of the compiled plan, for compileOnly)
	moved  int // bytes the busiest rank copies per operation: see moved
}

// must unwraps the ledger's own constants: a layout, topology or kernel
// below can only fail if this file is wrong.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func budgetRows() []budgetRow {
	const b, big = 128, 64 << 10
	index := Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Radix: 2}}
	concat := Spec{Op: OpConcat, BlockLen: b}
	sum := must(KernelOptions(buffers.Sum, buffers.Float32))
	reduce := func(op Op, alg ReduceAlgorithm, radix int) Spec {
		o := sum
		o.Algorithm, o.Radix = alg, radix
		return Spec{Op: op, BlockLen: b, Reduce: o}
	}
	allreduce := reduce(OpAllReduce, ReduceBruck, 2)

	// Ragged layouts: a skewed count table with zero-length blocks on the
	// padded Bruck schedule and under cost-model dispatch, and a skewed
	// contribution vector on the circulant concatenation.
	counts, vector := make([][]int, budgetN), make([]int, budgetN)
	for i := range counts {
		counts[i] = make([]int, budgetN)
		for j := range counts[i] {
			counts[i][j] = 1 + (i*7+j*3)%b
			if (i*budgetN+j)%6 == 0 {
				counts[i][j] = 0
			}
		}
		vector[i] = (i * 29) % b
	}
	indexV := Spec{Op: OpIndexV, Layout: must(blocks.Ragged(counts)), Index: index.Index}
	indexVAuto := indexV
	indexVAuto.Auto = &costmodel.SP1
	concatV := Spec{Op: OpConcatV, Layout: must(blocks.RaggedVector(vector))}

	halves := index
	halves.BlockLen = 64
	auto := reduce(OpAllReduce, ReduceRing, 0)
	auto.Auto = &costmodel.SP1
	// The benchmark's allreduce-large: the default schedule at 16 KiB.
	ring16k := reduce(OpAllReduce, ReduceRing, 0)
	ring16k.BlockLen = 16 << 10

	// Segment pipelining against the monolithic schedule at a
	// bandwidth-bound block size.
	sized := func(s Spec, segments int) Spec {
		s.BlockLen, s.Segments = big, segments
		return s
	}
	// The two-level compositions against their flat counterparts, both on
	// an engine tagging messages by link class.
	topo := must(costmodel.NewTopology([]int{4, 4, 4, 4}, costmodel.SP1, costmodel.Scaled(costmodel.SP1, costmodel.DefaultInterRatio)))
	on := func(s Spec, hier bool) Spec {
		s.Topology, s.Hierarchical = topo, hier
		return s
	}

	return []budgetRow{
		{"index/flat", index, compilePerCall, 9, 4, 4096, 2048},
		{"concat/flat", concat, compilePerCall, 17, 4, 1920, 2048},
		{"index/plan-reuse", index, planReuse, 2, 4, 4096, 2048},
		{"index/compile-only", index, compileOnly, 7, 4, 4096, 2048},
		{"concat/plan-reuse", concat, planReuse, 2, 4, 1920, 2048},
		{"indexv/ragged-bruck", indexV, planReuse, 2, 4, 4096, 6634},
		{"indexv/ragged-auto", indexVAuto, planReuse, 2, 6, 3072, 5610},
		{"concatv/ragged-circulant", concatV, planReuse, 2, 4, 1815, 2856},
		{"runplans/concurrent-2x8", halves, concurrent, 10, 3, 1536, 512},
		{"reducescatter/ring", reduce(OpReduceScatter, ReduceRing, 0), planReuse, 2, 15, 1920, 2176},
		{"reducescatter/halving", reduce(OpReduceScatter, ReduceHalving, 0), planReuse, 2, 4, 1920, 4096},
		{"reducescatter/bruck-r2", reduce(OpReduceScatter, ReduceBruck, 2), planReuse, 2, 4, 4096, 2048},
		{"allreduce/auto", auto, planReuse, 2, 8, 3840, 6016},
		{"allreduce/ring-16k", ring16k, planReuse, 2, 19, 491520, 524288},
		{"index/mono", sized(index, 0), planReuse, 2, 4, 2097152, 1048576},
		{"index/s4", sized(index, 4), planReuse, 2, 7, 917504, 2162688},
		{"allreduce/mono", sized(allreduce, 0), planReuse, 2, 8, 3080192, 2031616},
		{"allreduce/s4", sized(allreduce, 4), planReuse, 2, 11, 1900544, 4128768},
		// One-directional at 64 KiB: split over workers, the lower ranks
		// keep every payload of the upper ones.
		{"gather/64k", Spec{Op: OpGather, BlockLen: big}, planReuse, 2, 4, 983040, 1048576},
		{"index/flat-4x4", on(index, false), planReuse, 2, 4, 4096, 2048},
		{"concat/flat-4x4", on(concat, false), planReuse, 2, 4, 1920, 2048},
		{"allreduce/flat-4x4", on(allreduce, false), planReuse, 2, 8, 6016, 3968},
		{"index/hier-4x4", on(index, true), planReuse, 4, 10, 17920, 27264},
		{"concat/hier-4x4", on(concat, true), planReuse, 4, 7, 6528, 8064},
		{"allreduce/hier-4x4", on(allreduce, true), planReuse, 4, 12, 24576, 14336},
	}
}

// engine returns the row's machine.
func (row budgetRow) engine() (*mpsim.Engine, error) {
	var opts []mpsim.Option
	if t := row.spec.Topology; t != nil {
		opts = append(opts, mpsim.WithTopology(t.GroupAssignment()))
	}
	return mpsim.New(budgetN, opts...)
}

// fill returns the row's input: labels, or elements the row's kernel
// combines exactly.
func (row budgetRow) fill() func(blk []byte, rank, block int) {
	if row.spec.Reduce.Kernel != nil {
		return buffers.Float32.Fill
	}
	return Labels
}

// setup builds the row's steady state: the operation
// and a model callback reporting the C1/C2 of its last run and the bytes
// its busiest rank moved.
func (row budgetRow) setup() (op func() error, model func() (c1, c2, moved int), err error) {
	e, err := row.engine()
	if err != nil {
		return nil, nil, err
	}
	groups := []*mpsim.Group{mpsim.WorldGroup(budgetN)}
	if row.mode == concurrent {
		ids := groups[0].IDs()
		groups = []*mpsim.Group{must(mpsim.NewGroup(ids[:budgetN/2], budgetN)), must(mpsim.NewGroup(ids[budgetN/2:], budgetN))}
	}
	jobs := make([]Job, len(groups))
	for i, g := range groups {
		if jobs[i].Plan, err = Compile(e, g, row.spec); err != nil {
			return nil, nil, err
		}
		if jobs[i].Mem, err = jobs[i].Plan.Alloc(); err != nil {
			return nil, nil, err
		}
		jobs[i].Plan.Fill(jobs[i].Mem, row.fill())
	}
	pl, mem, results := jobs[0].Plan, jobs[0].Mem, make([]*Result, 1)
	moved := func() (most int) {
		for me := 0; me < pl.prog.n; me++ {
			most = max(most, pl.prog.moved(me))
		}
		return most
	}
	switch row.mode {
	case compileOnly:
		op = func() (err error) { pl, err = Compile(e, groups[0], row.spec); return err }
		return op, func() (int, int, int) { return pl.Rounds(), pl.PredictedC2(), moved() }, nil
	case compilePerCall:
		op = func() (err error) {
			if pl, err = Compile(e, groups[0], row.spec); err == nil {
				results[0], err = pl.Run(mem)
			}
			return err
		}
	case concurrent:
		op = func() (err error) { results, err = ExecutePlans(e, jobs); return err }
	default:
		op = func() (err error) { results[0], err = pl.Run(mem); return err }
	}
	return op, func() (c1, c2, _ int) {
		for _, r := range results {
			c1 = max(c1, r.C1) // groups run concurrently: rounds overlap
			c2 += r.C2         // volume adds up
		}
		return c1, c2, moved()
	}, nil
}

// compare returns one line per number of the row that differs from the
// measured one, naming the row, the metric and both values.
func (row budgetRow) compare(allocs, c1, c2, moved int) (diffs []string) {
	for _, m := range []struct {
		metric      string
		got, budget int
	}{{"allocs", allocs, row.allocs}, {"C1", c1, row.c1}, {"C2", c2, row.c2}, {"moved", moved, row.moved}} {
		switch {
		case m.got > m.budget:
			diffs = append(diffs, fmt.Sprintf("%s: %s = %d over its budget of %d: a regression", row.name, m.metric, m.got, m.budget))
		case m.got < m.budget:
			diffs = append(diffs, fmt.Sprintf("%s: %s = %d under its budget of %d: the budget is stale, tighten the row to %d", row.name, m.metric, m.got, m.budget, m.got))
		}
	}
	return diffs
}

// TestBudget measures every row on a plain engine — allocations and
// C1/C2 do not depend on how many workers the walk splits a row over
// (CI runs it at -cpu 1,2,4) — and asserts the
// ledger exactly. Allocation counts are not asserted under -race, where
// sync.Pool drops items at random.
func TestBudget(t *testing.T) {
	for _, row := range budgetRows() {
		t.Run(row.name, func(t *testing.T) {
			op, model, err := row.setup()
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}
			// The rank-local pools of a one-directional phase take up to
			// eight operations to stop growing (concat/hier-4x4). The 64 KiB
			// rows, 100 ms an operation under the float32 kernel, are
			// steady after two.
			warm, runs := 10, 5
			if row.spec.BlockLen > 128 {
				warm, runs = 2, 2
			}
			for i := 0; i < warm; i++ {
				run()
			}
			allocs := row.allocs
			if !raceDetector {
				allocs = int(testing.AllocsPerRun(runs, run))
				// AllocsPerRun sets GOMAXPROCS to 1, and so the walk to one
				// worker; split over the test's, it allocates the same. Its
				// 20 runs average out what the runtime draws now and then.
				if p := runtime.GOMAXPROCS(0); p > 1 {
					if split := allocsPerRun(20, run); split != allocs {
						t.Errorf("%d allocs at GOMAXPROCS %d, %d at 1", split, p, allocs)
					}
				}
			}
			c1, c2, moved := model()
			for _, d := range row.compare(allocs, c1, c2, moved) {
				t.Error(d)
			}
		})
	}
}

// allocsPerRun is testing.AllocsPerRun at the caller's GOMAXPROCS: the
// allocations of runs calls of f after a first, averaged and truncated.
// It counts from full caches of the runtime's wait records (sudogs): a
// worker that sleeps at a barrier takes one from its P's cache and may
// hand it back to another's, so after a collection empties them the
// sleeps draw new ones until the caches hold about 128 a P.
func allocsPerRun(runs int, f func()) int {
	fillWaitCaches(256 * runtime.GOMAXPROCS(0))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int((after.Mallocs - before.Mallocs) / uint64(runs))
}

// fillWaitCaches parks n goroutines at once and wakes them, leaving a
// wait record for each in the runtime's caches.
func fillWaitCaches(n int) {
	var parked, done sync.WaitGroup
	wake := make(chan struct{})
	parked.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			parked.Done()
			<-wake
			done.Done()
		}()
	}
	parked.Wait()
	for i := 0; i < 100; i++ { // let the last to start reach the receive
		runtime.Gosched()
	}
	close(wake)
	done.Wait()
}

// TestPlanImmutableAfterCompile: a compiled plan is plain data that
// nothing writes again. Every ledger row is compiled twice, from specs
// built apart so that not even a layout is shared: the two plans are
// equal field by field (compiling is deterministic), and after one of
// them has run on each driver, through Run and through ExecutePlans, and
// been served from a cache hit, it still equals the twin nothing
// touched, still holds the engine, group and kernel it was compiled
// with, and still passes Check. Every Result a run returns is the plan's
// own, and the caller's to write: each one, scribbled on after the
// check, must leave the plan and the next Result as they were.
func TestPlanImmutableAfterCompile(t *testing.T) {
	twins := budgetRows()
	code := func(f buffers.CombineFunc) uintptr { return reflect.ValueOf(f).Pointer() }
	// data is the plan without the fields compared by identity: DeepEqual
	// follows the engine into its run state and never equals two non-nil
	// funcs.
	data := func(pl *Plan) Plan {
		d := *pl
		d.engine, d.group, d.combine = nil, nil, nil
		return d
	}
	for i, row := range budgetRows() {
		t.Run(row.name, func(t *testing.T) {
			e, err := row.engine()
			if err != nil {
				t.Fatal(err)
			}
			g, c := mpsim.WorldGroup(budgetN), NewPlanCache()
			pl, err := c.Get(e, g, row.spec)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := Compile(e, g, twins[i].spec)
			if err != nil {
				t.Fatal(err)
			}
			kernel := code(pl.combine)
			same := func(when string) {
				t.Helper()
				if pl.engine != e || pl.group != g || code(pl.combine) != kernel {
					t.Fatalf("%s the plan's engine, group or kernel is not the one it was compiled with", when)
				}
				if !reflect.DeepEqual(data(pl), data(twin)) {
					t.Fatalf("%s the plan differs from its untouched twin", when)
				}
			}
			same("freshly compiled,")
			mem, err := pl.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			pl.Fill(mem, row.fill())
			// scribble checks a Result against the twin's, then writes to
			// every part of it a shared template would expose.
			scribble := func(res *Result) {
				t.Helper()
				if !reflect.DeepEqual(*res, twin.res) {
					t.Fatalf("a run returned %+v, the plan's Result is %+v", res, twin.res)
				}
				res.RoundSizes[0]++
				if res.Intra != nil {
					res.Intra.C1++
				}
			}
			for _, run := range []func(Memory) (*Result, error){pl.runRounds, pl.runEngine, pl.Run} {
				res, err := run(mem)
				if err != nil {
					t.Fatal(err)
				}
				scribble(res)
			}
			same("after a run on each driver and a Run,")
			results, err := ExecutePlans(e, []Job{{pl, mem}})
			if err != nil {
				t.Fatal(err)
			}
			scribble(results[0])
			same("after ExecutePlans,")
			if hit, err := c.Get(e, g, row.spec); hit != pl || err != nil {
				t.Fatalf("a second Get returned another plan (%v)", err)
			}
			same("after a cache hit,")
			if violations := pl.Check(); violations != nil {
				t.Errorf("Check after execution: %q", violations)
			}
		})
	}
}

// TestBudgetCompare is the negative control: against a row one under in
// allocations, one over in volume and off either way in bytes moved, the
// comparator reports each with the pinned text, and an exact measurement
// nothing.
func TestBudgetCompare(t *testing.T) {
	row := budgetRow{name: "op/shape", allocs: 70, c1: 4, c2: 4096, moved: 8320}
	if d := row.compare(70, 4, 4096, 8320); d != nil {
		t.Errorf("exact measurement reported %q", d)
	}
	want := []string{
		"op/shape: allocs = 71 over its budget of 70: a regression",
		"op/shape: C2 = 4095 under its budget of 4096: the budget is stale, tighten the row to 4095",
		"op/shape: moved = 12288 over its budget of 8320: a regression",
	}
	if d := row.compare(71, 4, 4095, 12288); !slices.Equal(d, want) {
		t.Errorf("got %q, want %q", d, want)
	}
	want = []string{"op/shape: moved = 8192 under its budget of 8320: the budget is stale, tighten the row to 8192"}
	if d := row.compare(70, 4, 4096, 8192); !slices.Equal(d, want) {
		t.Errorf("got %q, want %q", d, want)
	}
}

// BenchmarkBudget runs the ledger's rows under testing.B for ad-hoc
// local timing; nothing snapshots it.
func BenchmarkBudget(b *testing.B) {
	for _, row := range budgetRows() {
		b.Run(row.name, func(b *testing.B) {
			op, model, err := row.setup()
			if err != nil {
				b.Fatal(err)
			}
			if err := op(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
			c1, c2, moved := model()
			b.ReportMetric(float64(c1), "C1")
			b.ReportMetric(float64(c2), "C2/bytes")
			b.ReportMetric(float64(moved), "moved/bytes")
		})
	}
}
