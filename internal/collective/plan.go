package collective

import (
	"fmt"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
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
// current transport and pools). Execute runs the plan alone;
// ExecutePlans runs several plans with pairwise disjoint groups
// concurrently inside a single engine run.
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

	// in/out are the buffers bound by Bind for ExecutePlans; Execute
	// takes explicit buffers and ignores them. vin/vout are the ragged
	// buffers bound by BindV.
	in, out   *buffers.Buffers
	vin, vout *buffers.Ragged

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
	// table and the four bounds its per-level lower bounds, carried into
	// every Result's LevelStats.
	topo                 *costmodel.Topology
	phases               []PlanPhase
	intraC1LB, intraC2LB int
	interC1LB, interC2LB int

	// poolHint is the largest pool buffer any execution acquires.
	poolHint int
	// c1 is the number of communication rounds the schedule performs.
	c1 int
	// c2 is the schedule's predicted data volume (sum over rounds of the
	// round's largest message, in bytes) — the quantity the auto
	// dispatcher evaluates the linear cost model on. The simulator's
	// measured C2 matches it exactly.
	c2 int
	// c2lb is the layout's data-volume lower bound (package lowerbound),
	// carried into every Result this plan produces.
	c2lb int
	// c1lb is the round-count lower bound, carried the same way. Zero
	// for ragged layouts, where the dissemination bound need not apply
	// (a zero row removes dependencies).
	c1lb int
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

// MaxMessageBytes returns the largest pooled buffer an execution
// acquires — the pre-sizing hint handed to the processor-local pools.
func (pl *Plan) MaxMessageBytes() int { return pl.poolHint }

// PredictedC2 returns the schedule's data volume in bytes (the paper's
// C2, sum over rounds of the round's largest message), known exactly at
// compile time. Executions measure the same value.
func (pl *Plan) PredictedC2() int { return pl.c2 }

// C2LowerBound returns the layout's data-volume lower bound (package
// lowerbound; the non-uniform generalization of Propositions 2.2/2.4
// for layout plans). Every Result the plan produces carries it.
func (pl *Plan) C2LowerBound() int { return pl.c2lb }

// Time returns the linear-model estimate C1*Beta + C2*Tau of one
// execution of the plan — the quantity the auto dispatcher minimizes
// over candidate plans.
func (pl *Plan) Time(p costmodel.Profile) float64 {
	return p.Time(pl.c1, pl.c2)
}

// Layout returns the input layout of a layout plan (OpIndexV /
// OpConcatV), or nil for a classic fixed-size plan.
func (pl *Plan) Layout() *blocks.Layout { return pl.layout }

// OutLayout returns the output layout a layout plan requires (the
// transpose for index, the n x n concatenation shape for concat), or
// nil for a classic plan.
func (pl *Plan) OutLayout() *blocks.Layout { return pl.outLayout }

// result builds the Result of one engine execution of this plan from
// the metrics it recorded.
func (pl *Plan) result(m *mpsim.Metrics) *Result {
	res := &Result{C1: m.Rounds(), C2: m.DataVolume(), RoundSizes: m.RoundSizes(), TotalBytes: m.TotalBytes(), Messages: m.Messages()}
	if pl.topo == nil || m.ClassRoundSizes(mpsim.ClassIntra) == nil {
		return pl.complete(res, nil)
	}
	var levels [mpsim.NumLinkClasses]LevelStats
	for c := range levels {
		levels[c].C1, levels[c].C2 = m.ClassRounds(c), m.ClassVolume(c)
	}
	return pl.complete(res, &levels)
}

// complete adds the plan's bounds to the Result an execution counted and,
// for a hierarchical plan, the per-level split: levels as counted on an
// engine that tags link classes, or without one (levels nil) the
// compiled per-phase split, which the phase-ordered schedule realizes
// exactly.
func (pl *Plan) complete(res *Result, levels *[mpsim.NumLinkClasses]LevelStats) *Result {
	res.C2LowerBound = pl.c2lb
	res.C1LowerBound = pl.c1lb
	if pl.topo != nil {
		intra := &LevelStats{C1LowerBound: pl.intraC1LB, C2LowerBound: pl.intraC2LB}
		inter := &LevelStats{C1LowerBound: pl.interC1LB, C2LowerBound: pl.interC2LB}
		if levels != nil {
			intra.C1, intra.C2 = levels[mpsim.ClassIntra].C1, levels[mpsim.ClassIntra].C2
			inter.C1, inter.C2 = levels[mpsim.ClassInter].C1, levels[mpsim.ClassInter].C2
		} else {
			intra.C1, intra.C2 = pl.PredictedClassC1(mpsim.ClassIntra), pl.PredictedClassC2(mpsim.ClassIntra)
			inter.C1, inter.C2 = pl.PredictedClassC1(mpsim.ClassInter), pl.PredictedClassC2(mpsim.ClassInter)
		}
		res.Intra, res.Inter = intra, inter
	}
	return res
}

// compile is the single entry to the compilers: it lowers a canonical
// (validated) spec into a step program — the family's compiler also sets
// the plan's family-specific fields — and derives the plan's rounds,
// volume and pool hint from that program.
func compile(e *mpsim.Engine, g *mpsim.Group, s Spec) (*Plan, error) {
	pl := &Plan{engine: e, group: g, op: s.Op, blockLen: s.BlockLen}
	n, k := g.Size(), e.Ports()
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
	pr.finish()
	pl.prog, pl.c1, pl.c2, pl.poolHint, pl.phases = pr, pr.c1, pr.c2, pr.hint, pr.phases
	return pl, nil
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

// checkFlat validates one flat buffer against the plan: n processor
// regions of the given number of blocks of the plan's block size.
func (pl *Plan) checkFlat(what string, b *buffers.Buffers, blocks int) error {
	if n := pl.group.Size(); b.Procs() != n || b.Blocks() != blocks || b.BlockLen() != pl.blockLen {
		return fmt.Errorf("collective: %s %s is %dx%d blocks of %d bytes, want %dx%d of %d",
			pl.op, what, b.Procs(), b.Blocks(), b.BlockLen(), n, blocks, pl.blockLen)
	}
	return nil
}

// checkBuffers validates an (in, out) pair against the plan's shape:
// index plans need two index-shaped buffers, concat plans a
// concat-shaped input and an index-shaped output.
func (pl *Plan) checkBuffers(in, out *buffers.Buffers) error {
	switch {
	case pl.layout != nil:
		return fmt.Errorf("collective: %s layout plan takes ragged buffers (use ExecuteV/BindV)", pl.op)
	case pl.op.rooted():
		return fmt.Errorf("collective: %s plan takes one flat buffer and the root's slice (use ExecuteRooted)", pl.op)
	case in == nil || out == nil:
		return fmt.Errorf("collective: nil flat buffer")
	case in == out:
		return fmt.Errorf("collective: flat output must not alias the input")
	}
	if err := pl.checkFlat("plan input", in, pl.blocks(regIn, 0)); err != nil {
		return err
	}
	return pl.checkFlat("plan output", out, pl.blocks(regOut, 0))
}

// Bind validates and attaches an (in, out) buffer pair to the plan for
// use by ExecutePlans. Binding may be repeated to retarget the plan;
// Execute ignores the binding.
func (pl *Plan) Bind(in, out *buffers.Buffers) error {
	if err := pl.checkBuffers(in, out); err != nil {
		return err
	}
	pl.in, pl.out = in, out
	return nil
}

// Execute runs the compiled schedule on its engine with the given
// buffers: for index plans out.Block(i, j) ends up equal to
// in.Block(j, i), for concat plans out.Block(i, j) equals
// in.Block(j, 0).
func (pl *Plan) Execute(in, out *buffers.Buffers) (*Result, error) {
	if err := pl.checkBuffers(in, out); err != nil {
		return nil, err
	}
	return pl.run(in, out)
}

// roundMajorBytes is the most bytes a plan may copy per execution — the
// sum over its ranks of program.moved — and still run on the round-major
// driver. One goroutine then copies every rank's bytes, which wins while
// the engine's fixed cost dominates and loses once two cores copying in
// parallel do. BenchmarkDrivers sweeps the index at n = 16 over block
// sizes on both drivers. On a 2-vCPU host at one P the round-major
// driver never loses; at two Ps it still wins at b = 4 KiB (4.3 MB
// copied) and loses from b = 16 KiB (17 MB) on. The bound keeps a margin
// under that crossover.
const roundMajorBytes = 2 << 20

// roundMajor reports whether Plan.run executes the plan on the
// round-major driver: a plan that copies at most roundMajorBytes on an
// engine whose runs are plain (mpsim.Engine.Plain), so that nothing —
// recorded events, injected delays — would tell the drivers apart.
func (pl *Plan) roundMajor() bool {
	return pl.prog.copied <= roundMajorBytes && pl.engine.Plain()
}

// run executes the plan alone on its engine, round-major where
// roundMajor says so.
func (pl *Plan) run(in, out slab) (*Result, error) {
	if pl.roundMajor() {
		return pl.runRounds(in, out)
	}
	return pl.runEngine(in, out)
}

// runEngine executes the plan alone on the engine driver. The result is
// built from the metrics the run returns: once it is over,
// Engine.Metrics may already be another caller's.
func (pl *Plan) runEngine(in, out slab) (*Result, error) {
	ms, err := pl.engine.RunPrograms([]mpsim.Program{{Body: pl.body(in, out)}})
	if err != nil {
		return nil, err
	}
	return pl.result(ms[0]), nil
}

// slab is one caller side of an execution: Proc(me) is group rank me's
// memory, whose shape the plan knows. Flat and ragged buffers are slabs.
type slab interface{ Proc(me int) []byte }

// rootOnly is the side of a one-to-all primitive only the root has.
type rootOnly struct {
	root int
	data []byte
}

func (r rootOnly) Proc(me int) []byte {
	if me == r.root {
		return r.data
	}
	return nil
}

// body is the per-processor program of one execution: bind the rank's
// input and output regions, run its role.
func (pl *Plan) body(in, out slab) func(*mpsim.Proc) error {
	return func(p *mpsim.Proc) error {
		me := pl.group.Rank(p.Rank())
		if me < 0 {
			return nil
		}
		f := framePool.Get().(*frame).start(p, pl, pl.prog, nil, me)
		f.p = p
		f.reg[regIn] = region{pl.prog.shapeOf(regIn, me), in.Proc(me)}
		f.reg[regOut] = region{pl.prog.shapeOf(regOut, me), out.Proc(me)}
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

// ExecuteRooted runs a compiled one-to-all primitive. ranks holds one
// block per group rank: the broadcast's and the scatter's output, the
// gather's input. root is the side only the root has and no other rank
// touches: the broadcast's data, or the n blocks in group-rank order a
// gather delivers and a scatter distributes.
func (pl *Plan) ExecuteRooted(ranks *buffers.Buffers, root []byte) (*Result, error) {
	switch {
	case !pl.op.rooted():
		return nil, fmt.Errorf("collective: %s plan is not a one-to-all primitive (use Execute)", pl.op)
	case ranks == nil:
		return nil, fmt.Errorf("collective: nil flat buffer")
	}
	if err := pl.checkFlat("buffer", ranks, 1); err != nil {
		return nil, err
	}
	switch want := pl.group.Size() * pl.blockLen; {
	case pl.op == OpBroadcast && len(root) != pl.blockLen:
		return nil, fmt.Errorf("collective: broadcast data is %d bytes, want %d", len(root), pl.blockLen)
	case pl.op == OpGather && len(root) != want:
		return nil, fmt.Errorf("collective: gather output is %d bytes, want n*b = %d", len(root), want)
	case pl.op == OpScatter && len(root) != want:
		return nil, fmt.Errorf("collective: scatter input is %d bytes, want n*b = %d", len(root), want)
	}
	if pl.op == OpGather {
		return pl.run(ranks, rootOnly{pl.root, root})
	}
	return pl.run(rootOnly{pl.root, root}, ranks)
}

// checkRagged validates an (in, out) ragged pair against a layout
// plan's input and output layouts.
func (pl *Plan) checkRagged(in, out *buffers.Ragged) error {
	if pl.layout == nil {
		return fmt.Errorf("collective: %s fixed-size plan takes flat buffers (use Execute/Bind)", pl.op)
	}
	if in == nil || out == nil {
		return fmt.Errorf("collective: nil ragged buffer")
	}
	if in == out {
		return fmt.Errorf("collective: ragged output must not alias the input")
	}
	if !in.Layout().Equal(pl.layout) {
		return fmt.Errorf("collective: %s plan input layout is %dx%d, want the plan's compiled layout (%dx%d)",
			pl.op, in.Layout().Rows(), in.Layout().Cols(), pl.layout.Rows(), pl.layout.Cols())
	}
	if !out.Layout().Equal(pl.outLayout) {
		return fmt.Errorf("collective: %s plan output layout does not match the plan's output shape (want %dx%d, the input's %s)",
			pl.op, pl.outLayout.Rows(), pl.outLayout.Cols(),
			map[Op]string{OpIndexV: "transpose", OpConcatV: "concatenation"}[pl.op])
	}
	return nil
}

// ExecuteV runs a compiled layout plan: for index plans out.Block(i, j)
// ends up equal to in.Block(j, i) (at its true, possibly zero, length),
// for concat plans out.Block(i, j) equals in.Block(j, 0). On a uniform
// layout the schedule — and therefore the Result — is byte-identical to
// the corresponding fixed-size plan's.
func (pl *Plan) ExecuteV(in, out *buffers.Ragged) (*Result, error) {
	if err := pl.checkRagged(in, out); err != nil {
		return nil, err
	}
	return pl.run(in, out)
}

// BindV validates and attaches a ragged (in, out) pair to a layout plan
// for use by ExecutePlans, the ragged counterpart of Bind.
func (pl *Plan) BindV(in, out *buffers.Ragged) error {
	if err := pl.checkRagged(in, out); err != nil {
		return err
	}
	pl.vin, pl.vout = in, out
	return nil
}

// ExecutePlans runs several compiled plans concurrently inside one
// engine run. The plans must all belong to engine e, have pairwise
// disjoint groups, and carry buffers attached with Bind. Each plan
// keeps its own metrics; the returned Results are in plan order. The
// k-port constraint is enforced per processor as always, and schedule
// validation applies per plan group.
func ExecutePlans(e *mpsim.Engine, plans []*Plan) ([]*Result, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("collective: no plans to execute")
	}
	seen := make(map[int]int, e.N())
	progs := make([]mpsim.Program, len(plans))
	for i, pl := range plans {
		if pl == nil {
			return nil, fmt.Errorf("collective: plan %d is nil", i)
		}
		if pl.engine != e {
			return nil, fmt.Errorf("collective: plan %d was compiled for a different engine", i)
		}
		if pl.layout != nil {
			if pl.vin == nil || pl.vout == nil {
				return nil, fmt.Errorf("collective: layout plan %d has no bound ragged buffers (call BindV)", i)
			}
		} else if pl.in == nil || pl.out == nil {
			return nil, fmt.Errorf("collective: plan %d has no bound buffers (call Bind)", i)
		}
		for _, id := range pl.group.IDs() {
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("collective: plans %d and %d share processor %d; groups must be disjoint", prev, i, id)
			}
			seen[id] = i
		}
		progs[i] = mpsim.Program{Members: pl.group.IDs(), Body: pl.body(pl.in, pl.out)}
		if pl.layout != nil {
			progs[i].Body = pl.body(pl.vin, pl.vout)
		}
	}
	metrics, err := e.RunPrograms(progs)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(metrics))
	for i, m := range metrics {
		results[i] = plans[i].result(m)
	}
	return results, nil
}
