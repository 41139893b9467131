package collective

import (
	"fmt"
	"slices"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// A Plan is a compiled collective schedule: the step program of one
// Spec on one (engine, group) pair, compiled once so that repeated executions perform zero schedule
// recomputation. The paper's schedules are fixed functions of (n, k, r)
// — nothing about them depends on the payload — which is exactly what
// makes them compilable.
//
// A Plan is immutable after compilation and remains valid for the
// lifetime of its engine, across any number of runs and across the
// engine's post-deadlock fencing (each execution picks up the engine's
// current transport and pools). It holds no caller bytes: every
// execution names its own Memory, so one cached Plan serves any number
// of callers. Run executes the plan alone on one Memory; ExecutePlans
// runs several plans with pairwise disjoint groups, each on its own
// Memory, concurrently under one claim of the engine.
type Plan struct {
	engine   *mpsim.Engine
	group    *mpsim.Group
	op       Op
	alg      string // Algorithm()
	blockLen int
	root     int // one-to-all primitives: the group rank of the root

	// prog is the schedule; everything below it is derived from it at
	// compile time (program.finish) or is a bound of package lowerbound.
	prog *program

	// res is the Result of every execution, which gets a copy (result):
	// the program's measures and the bounds of package lowerbound, and
	// for a hierarchical plan the per-level split of its phase table.
	res Result

	// Layout plans (IndexV / ConcatV): the input layout the plan was
	// compiled for and the shape of its result; blockLen is then the
	// padded slot size (layout.Max()) the fixed-size schedules run on.
	// Classic fixed-size plans leave both nil.
	layout    *blocks.Layout
	outLayout *blocks.Layout

	// segments > 1 marks a segment-pipelined plan: every block travels
	// as that many byte spans, one merged round apart. 0 is monolithic.
	segments int

	// combine is the kernel a reduction plan applies where a plain
	// collective would copy.
	combine buffers.CombineFunc

	// topo marks a hierarchical (two-level) plan; phases is its phase
	// table.
	topo   *costmodel.Topology
	phases []PlanPhase

	// c1 is the number of communication rounds the schedule performs.
	c1 int
}

// Op returns "index", "concat", "reduce-scatter", "allreduce",
// "broadcast", "gather" or "scatter".
func (pl *Plan) Op() string { return pl.op.String() }

// Algorithm returns the compiled schedule's algorithm name ("bruck",
// "direct", "pairwise-xor", "circulant", "ring", "halving",
// "hierarchical", "tree", ...).
func (pl *Plan) Algorithm() string { return pl.alg }

// Group returns the group the plan was compiled for.
func (pl *Plan) Group() *mpsim.Group { return pl.group }

// BlockLen returns the block size in bytes the plan was compiled for;
// for layout plans this is the padded slot size (Layout().Max()) the
// two-phase packing runs the fixed-size schedule on.
func (pl *Plan) BlockLen() int { return pl.blockLen }

// Rounds returns the number of communication rounds (the paper's C1)
// the compiled schedule executes. For a segment-pipelined plan this is
// the merged-round count rounds + segments - 1.
func (pl *Plan) Rounds() int { return pl.c1 }

// Segments returns the segment count of a pipelined plan, or 0 for a
// monolithic one. (1 never occurs: a one-segment request compiles to
// the monolithic schedule.)
func (pl *Plan) Segments() int { return pl.segments }

// PredictedC2 returns the schedule's data volume in bytes (the paper's
// C2, sum over rounds of the round's largest message), known exactly at
// compile time — the quantity the auto dispatcher evaluates the linear
// cost model on. Every Result the plan produces carries it.
func (pl *Plan) PredictedC2() int { return pl.res.C2 }

// C2LowerBound returns the layout's data-volume lower bound (package
// lowerbound; the non-uniform generalization of Propositions 2.2/2.4
// for layout plans). Every Result the plan produces carries it.
func (pl *Plan) C2LowerBound() int { return pl.res.C2LowerBound }

// Time returns the linear-model estimate C1*Beta + C2*Tau of one
// execution of the plan — the quantity the auto dispatcher minimizes
// over candidate plans.
func (pl *Plan) Time(p costmodel.Profile) float64 {
	return p.Time(pl.c1, pl.res.C2)
}

// Layout returns the input layout of a layout plan (OpIndexV /
// OpConcatV), or nil for a classic fixed-size plan.
func (pl *Plan) Layout() *blocks.Layout { return pl.layout }

// OutLayout returns the output layout a layout plan requires (the
// transpose for index, the n x n concatenation shape for concat), or
// nil for a classic plan.
func (pl *Plan) OutLayout() *blocks.Layout { return pl.outLayout }

// result returns a copy of the plan's Result, deep enough that the
// caller may write to any part of it.
func (pl *Plan) result() *Result {
	res := pl.res
	res.RoundSizes = slices.Clone(res.RoundSizes)
	if res.Intra != nil {
		intra, inter := *res.Intra, *res.Inter
		res.Intra, res.Inter = &intra, &inter
	}
	return &res
}

// compile is the single entry to the compilers: it lowers a canonical
// (validated) spec into a step program — the family's compiler also sets
// the plan's family-specific fields and bounds — applies the program
// passes (passes.go) and derives the plan's rounds and Result from it.
// Unplaced, the program is left as its compiler built it: every transfer
// packs (TestPlace compares the two).
func compile(e *mpsim.Engine, g *mpsim.Group, s Spec, placed bool) (*Plan, error) {
	pl := &Plan{engine: e, group: g, op: s.Op, blockLen: s.BlockLen}
	n, k := g.Size(), e.Ports()
	if s.Segments == AutoSegments { // resolved per compile, not per lookup: a cache hit stays free
		radix := s.Index.Radix
		if s.Op.reduction() {
			radix = s.Reduce.Radix
		}
		s.Segments = OptimalSegments(costmodel.SP1, n, s.BlockLen, defaultRadix(radix, n, k), k)
	}
	var pr *program
	var err error
	switch {
	case s.Op.rooted():
		pl.alg = "tree"
		pr = compileRooted(pl, n, k, s)
	case s.Hierarchical:
		pl.alg = "hierarchical"
		pr, err = compileHier(pl, n, k, s)
	case s.Op.reduction():
		pl.alg = s.Reduce.Algorithm.String()
		pr, err = compileReduce(pl, n, k, s)
	case s.Op == OpConcat || s.Op == OpConcatV:
		pl.alg = s.Concat.Algorithm.String()
		pr, err = compileConcat(pl, n, k, s)
	default:
		pl.alg = s.Index.Algorithm.String()
		pr, err = compileIndex(pl, n, k, s)
	}
	if err != nil {
		return nil, err
	}
	if placed {
		place(pr, s.Segments)
	}
	if pr, pl.segments = pipeline(pr, s.Segments); pl.segments > 1 {
		// A merged round multiplexes up to `segments` rounds over the
		// ports: C2 can dip below the volume bound by up to that factor.
		pl.res.C2LowerBound = intmath.CeilDiv(pl.res.C2LowerBound, pl.segments)
	}
	pl.derive(pr)
	return pl, nil
}

// derive finishes pr and takes the plan's rounds, phase table and
// Result from it.
func (pl *Plan) derive(pr *program) {
	pr.finish()
	pl.prog, pl.c1, pl.phases = pr, pr.c1, pr.phases
	res := &pl.res
	res.C1, res.C2, res.RoundSizes, res.Messages, res.TotalBytes = pr.busy, pr.c2, pr.sizes, pr.msgs, pr.bytes
	if res.Intra != nil {
		res.Intra.C1, res.Intra.C2 = pl.PredictedClassC1(mpsim.ClassIntra), pl.PredictedClassC2(mpsim.ClassIntra)
		res.Inter.C1, res.Inter.C2 = pl.PredictedClassC1(mpsim.ClassInter), pl.PredictedClassC2(mpsim.ClassInter)
	}
}

// blocks returns the block count of the caller's input (reg regIn) or
// output (regOut) region on group rank me: a one-to-all primitive has
// one block per rank against the root's n (data: 1).
func (pl *Plan) blocks(reg regID, me int) int {
	n, atRoot := pl.group.Size(), 0
	if me == pl.root {
		atRoot = 1
	}
	return [...][2]int{
		OpIndex: {n, n}, OpConcat: {1, n}, OpReduceScatter: {n, 1}, OpAllReduce: {n, n}, OpIndexV: {n, n}, OpConcatV: {1, n},
		OpBroadcast: {atRoot, 1}, OpGather: {1, atRoot * n}, OpScatter: {atRoot * n, 1},
	}[pl.op][reg]
}

// Execute is Run on flat buffers. It and ExecuteV exist only because the
// frozen benchmark/ package calls them; delete them in a benchmark-only PR.
func (pl *Plan) Execute(in, out *buffers.Buffers) (*Result, error) {
	return pl.Run(pl.Memory(in, out))
}

// ExecuteV is Run on ragged buffers.
func (pl *Plan) ExecuteV(in, out *buffers.Ragged) (*Result, error) {
	return pl.Run(pl.Memory(in, out))
}

// run executes the plan alone on memory that fits it: round-major on an
// engine whose runs are plain (mpsim.Engine.Plain), so that nothing —
// recorded events, injected delays — would tell the drivers apart, and
// on the engine driver otherwise.
func (pl *Plan) run(m Memory) (*Result, error) {
	if pl.engine.Plain() {
		return pl.runRounds(m)
	}
	return pl.runEngine(m)
}

// runEngine executes the plan alone on the engine driver.
func (pl *Plan) runEngine(m Memory) (*Result, error) {
	if err := pl.engine.RunPrograms([]mpsim.Program{{Body: pl.body(m)}}); err != nil {
		return nil, err
	}
	return pl.result(), nil
}

// body is the per-processor program of one execution: bind the rank's
// input and output regions, run its role.
func (pl *Plan) body(m Memory) func(*mpsim.Proc) error {
	md := &bytesMedium{m}
	return func(p *mpsim.Proc) error {
		me := pl.group.Rank(p.Rank())
		if me < 0 {
			return nil
		}
		f := framePool.Get().(*frame).start(md, p, pl, pl.prog, nil, me)
		f.p = p
		md.bind(f, me)
		err := f.run()
		framePool.Put(f)
		return rankErr(me, err)
	}
}

// rankErr names the group rank a run failed on.
func rankErr(me int, err error) error {
	if err != nil {
		return fmt.Errorf("group rank %d: %w", me, err)
	}
	return nil
}

// A Job is a plan and the memory one execution of it runs on.
type Job struct {
	Plan *Plan
	Mem  Memory
}

// ExecutePlans runs several compiled plans, each on its job's memory:
// on a plain engine as walks dealt over its workers under one claim of
// the engine (walkJobs); otherwise concurrently inside one engine run. The plans must all belong to engine e and have pairwise
// disjoint groups, and each memory must fit its plan (Run's check). The
// returned Results are in job order. The k-port constraint is enforced
// per processor as always, and schedule validation applies per plan
// group.
func ExecutePlans(e *mpsim.Engine, jobs []Job) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("collective: no plans to execute")
	}
	seen := make(map[int]int, e.N())
	for i, j := range jobs {
		pl := j.Plan
		if pl == nil {
			return nil, fmt.Errorf("collective: plan %d is nil", i)
		}
		if pl.engine != e {
			return nil, fmt.Errorf("collective: plan %d was compiled for a different engine", i)
		}
		if err := pl.fits(j.Mem); err != nil {
			return nil, fmt.Errorf("%w (plan %d)", err, i)
		}
		for _, id := range pl.group.IDs() {
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("collective: plans %d and %d share processor %d; groups must be disjoint", prev, i, id)
			}
			seen[id] = i
		}
	}
	var err error
	if e.Plain() {
		err = walkJobs(e, jobs, 0)
	} else {
		progs := make([]mpsim.Program, len(jobs))
		for i, j := range jobs {
			progs[i] = mpsim.Program{Members: j.Plan.group.IDs(), Body: j.Plan.body(j.Mem)}
		}
		err = e.RunPrograms(progs)
	}
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(jobs))
	for i, j := range jobs {
		results[i] = j.Plan.result()
	}
	return results, nil
}
