// Package bruck is a Go reproduction of "Efficient Algorithms for
// All-to-All Communications in Multiport Message-Passing Systems" by
// Bruck, Ho, Kipnis, Upfal and Weathersby (SPAA 1994; IEEE TPDS 8(11),
// 1997).
//
// It runs the paper's two all-to-all operations — Index (MPI_Alltoall:
// the radix-r Bruck family, direct-exchange and pairwise-XOR baselines)
// and Concat (MPI_Allgather: the circulant-graph algorithm, folklore,
// ring and recursive-doubling baselines) — the reductions built from
// them and the one-to-all primitives on a simulated multiport fully
// connected machine: the compiled schedule runs as one round-synchronous
// walk over the ranks, the k-port constraint enforced per round, C1
// (rounds) and C2 (sum over rounds of the largest message) derived from
// the compiled schedule and priced by Report.Time under a profile such
// as SP1. A compiled Plan also prices
// itself with per-processor clocks (Plan.CriticalPath, CriticalPathTopo),
// on the walk Plan.Check proves it with: one walk over the program, two
// domains, symbolic byte labels and virtual time.
//
// Every operation is one of three verbs on a Machine: Run executes it,
// Start executes it in the background, Compile returns its Plan.
//
//	m, _ := bruck.NewMachine(8)              // 8 processors, 1 port
//	in, _ := bruck.NewIndexBuffers(8, 16)    // in.Block(i, j) = block B[i,j]
//	out, _ := bruck.NewIndexBuffers(8, 16)
//	rep, err := m.Run(bruck.Index, in, out, bruck.WithRadix(2))
//	// out.Block(i, j) == in.Block(j, i); rep.C1, rep.C2 are the paper's measures
package bruck

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// Machine is a simulated n-processor multiport fully connected
// message-passing system. It runs any number of consecutive operations
// but is not safe for concurrent use. Every verb turns its options into
// one collective.Spec and asks the machine's plan cache for it: the
// first call with a configuration compiles its schedule, later calls
// replay the Plan. The cache keys groups by pointer, so reuse the
// *Group value (World, or a stored NewGroup result) to hit it.
type Machine struct {
	engine *mpsim.Engine
	world  *Group
	plans  *collective.PlanCache
	// topo is the machine's two-level topology (WithTopology), nil on a
	// flat machine.
	topo *costmodel.Topology
	// inflight marks the one operation the machine is running, blocking
	// or asynchronous (see claim).
	inflight atomic.Bool
}

// MachineOption configures NewMachine.
type MachineOption func(*machineConfig)

type machineConfig struct {
	ports int
	chaos *ChaosConfig
	topo  *costmodel.Topology
}

// ChaosConfig configures chaos, the seeded delay on the channel
// transport: the jitter seed and ceiling, and the straggler set. The
// zero value gives seed 1 and the default jitter. See mpsim.ChaosConfig.
type ChaosConfig = mpsim.ChaosConfig

// Ports sets the number of communication ports k per processor: in each
// round a processor can send k messages and receive k messages
// (1 <= k <= n-1). The default is 1, the one-port model.
func Ports(k int) MachineOption {
	return func(c *machineConfig) { c.ports = k }
}

// WithChaos runs the machine's plans on the engine, over the channel
// transport with a seeded delay before every send and receive (jitter,
// reordering across links, stragglers): the one transport option, as a
// plain machine walks its plans and moves no message. Results and
// Reports are byte-identical to a plain machine's.
func WithChaos(cfg ChaosConfig) MachineOption {
	return func(c *machineConfig) { c.chaos = &cfg }
}

// NewMachine creates a simulated machine with n processors.
func NewMachine(n int, opts ...MachineOption) (*Machine, error) {
	cfg := machineConfig{ports: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	eopts := []mpsim.Option{mpsim.Ports(cfg.ports)}
	if cfg.chaos != nil {
		eopts = append(eopts, mpsim.WithChaos(*cfg.chaos))
	}
	if cfg.topo != nil {
		if err := cfg.topo.Validate(); err != nil {
			return nil, err
		}
		if cfg.topo.N() != n {
			return nil, fmt.Errorf("bruck: topology covers %d processors, machine has %d", cfg.topo.N(), n)
		}
		eopts = append(eopts, mpsim.WithTopology(cfg.topo.GroupAssignment()))
	}
	e, err := mpsim.New(n, eopts...)
	if err != nil {
		return nil, err
	}
	return &Machine{engine: e, world: mpsim.WorldGroup(n), plans: collective.NewPlanCache(), topo: cfg.topo}, nil
}

// N returns the number of processors.
func (m *Machine) N() int { return m.engine.N() }

// Ports returns the port count k.
func (m *Machine) Ports() int { return m.engine.Ports() }

// Topology returns the machine's topology, nil for a flat machine.
func (m *Machine) Topology() *Topology { return m.topo }

// Group names an ordered subset of processors, like an MPI group, for
// OnGroup; group ranks are the positions in the id list.
type Group = mpsim.Group

// NewGroup creates a group from distinct processor ids of this machine.
func (m *Machine) NewGroup(ids []int) (*Group, error) {
	return mpsim.NewGroup(ids, m.engine.N())
}

// World returns the group of all processors in rank order.
func (m *Machine) World() *Group { return m.world }

// Report is the communication summary of one collective operation, in
// the paper's complexity measures: C1 rounds and C2 bytes of data
// volume (sum over rounds of the round's largest message).
type Report = collective.Result

// Profile is a machine model under the paper's linear cost model:
// sending an m-byte message costs Beta + m*Tau seconds.
type Profile = costmodel.Profile

// SP1 is the 64-node IBM SP-1 profile measured in Section 3.5 of the
// paper (start-up ~29us, ~8.5 Mbytes/s point-to-point bandwidth).
var SP1 = costmodel.SP1

// Topology describes a two-level machine: groups of processors with an
// intra-group profile and an inter-group profile. Attach one with
// WithTopology.
type Topology = costmodel.Topology

// NewTopology builds a validated two-level topology: groups[i]
// consecutive processors form group i, intra prices links inside a
// group and inter prices links between groups.
func NewTopology(groups []int, intra, inter Profile) (*Topology, error) {
	return costmodel.NewTopology(groups, intra, inter)
}

// ParseTopology parses "<groups>x<size>" or "<size1>,<size2>,...",
// optionally followed by ":beta,tau/beta,tau"; the profiles default to
// SP1 intra and SP1 scaled by DefaultInterRatio inter.
func ParseTopology(s string) (*Topology, error) { return costmodel.ParseTopology(s) }

// ScaledProfile returns p with both parameters scaled by f — the
// quick way to build an "inter links are f times slower" profile.
func ScaledProfile(p Profile, f float64) Profile { return costmodel.Scaled(p, f) }

// DefaultInterRatio is the inter/intra cost ratio ParseTopology
// assumes when the spec names no profiles.
const DefaultInterRatio = costmodel.DefaultInterRatio

// WithTopology attaches a two-level topology covering exactly the
// machine's n processors: messages are tagged with their link class,
// Hierarchical() schedules are accepted, and WithAuto on the fixed-size
// operations becomes the flat-vs-hierarchical dispatch.
func WithTopology(t *Topology) MachineOption {
	return func(c *machineConfig) { c.topo = t }
}

// Op names a collective operation, the first argument of every verb.
type Op = collective.Op

// The seven operations move blocks between two Buffers of the shapes
// named (n x b: n processor regions of b blocks; the 1 x b side of a
// rooted primitive is its Root's). Index and Concat also run on two
// RaggedBuffers (MPI_Alltoallv / MPI_Allgatherv), out laid out by the
// input Layout's Transpose or ConcatOut.
const (
	// Index is all-to-all personalized communication: in and out are
	// n x n, and afterwards out.Block(i, j) = in.Block(j, i).
	Index = collective.OpIndex
	// Concat is all-to-all broadcast: in is n x 1 and out n x n, and
	// afterwards out.Block(i, j) = in.Block(j, 0).
	Concat = collective.OpConcat
	// ReduceScatter combines under WithKernel or WithCombine: in is
	// n x n, in.Block(i, j) being rank i's part of chunk j, and out n x 1,
	// out.Block(j, 0) being chunk j combined over every rank.
	ReduceScatter = collective.OpReduceScatter
	// AllReduce is ReduceScatter followed by Concat in one run: in and
	// out are n x n, and out.Block(i, j) is chunk j combined, on every i.
	AllReduce = collective.OpAllReduce
	// Broadcast sends the root's block, in (1 x 1), to out.Block(j, 0)
	// of out (n x 1) on every member j.
	Broadcast = collective.OpBroadcast
	// Gather collects in.Block(j, 0) of in (n x 1) into out.Block(0, j)
	// of the root's out (1 x n).
	Gather = collective.OpGather
	// Scatter sends in.Block(0, j) of the root's in (1 x n) to
	// out.Block(j, 0) of out (n x 1).
	Scatter = collective.OpScatter
)

// Common algorithm identifiers, re-exported from the implementation
// package for use with the option setters.
const (
	// IndexBruck is the paper's radix-r index algorithm (default).
	IndexBruck = collective.IndexBruck
	// IndexDirect is the direct-exchange baseline (volume-optimal,
	// round-maximal).
	IndexDirect = collective.IndexDirect
	// IndexPairwiseXOR is the hypercube pairwise-exchange baseline
	// (power-of-two sizes).
	IndexPairwiseXOR = collective.IndexPairwiseXOR

	// ConcatCirculant is the paper's circulant-graph concatenation
	// algorithm (default).
	ConcatCirculant = collective.ConcatCirculant
	// ConcatFolklore is the gather+broadcast baseline.
	ConcatFolklore = collective.ConcatFolklore
	// ConcatRing is the ring baseline.
	ConcatRing = collective.ConcatRing
	// ConcatRecursiveDoubling is the hypercube baseline (power-of-two
	// sizes).
	ConcatRecursiveDoubling = collective.ConcatRecursiveDoubling
)

// Last-round policies for the circulant concatenation in the special
// range where C1- and C2-optimality conflict (Proposition 4.2).
const (
	// LastRoundPreferOptimal uses the single optimal round whenever it
	// exists (default).
	LastRoundPreferOptimal = partition.PreferOptimal
	// LastRoundMinRounds keeps C1 optimal at a C2 penalty of at most
	// b-1 bytes.
	LastRoundMinRounds = partition.MinRounds
	// LastRoundMinVolume keeps C2 within one byte of optimal at a cost
	// of one extra round.
	LastRoundMinVolume = partition.MinVolume
)

// CollectiveOption configures one collective call.
type CollectiveOption func(*callConfig)

type callConfig struct {
	group          *Group
	root, segments int
	indexOpt       collective.IndexOptions
	radices        []int
	concatOpt      collective.ConcatOptions
	reduceAlg      collective.ReduceAlgorithm
	kernelOp       ReduceOp
	kernelTyp      DataType
	kernelSet      bool
	combine        CombineFunc
	auto           *Profile
	hier           bool
	hierOpt        collective.HierOptions
}

// OnGroup restricts the operation to an ordered subset of processors;
// inputs and outputs are indexed by group rank. The default is the
// whole machine.
func OnGroup(g *Group) CollectiveOption {
	return func(c *callConfig) { c.group = g }
}

// Root names the group rank a Broadcast, Gather or Scatter is rooted
// at (default 0). The other operations ignore it.
func Root(r int) CollectiveOption {
	return func(c *callConfig) { c.root = r }
}

// WithRadix sets the radix r of the Bruck index algorithm
// (2 <= r <= n). Smaller radices minimize rounds (r = k+1 is
// round-optimal), larger radices minimize data volume (r = n is
// volume-optimal). The default is k+1.
func WithRadix(r int) CollectiveOption {
	return func(c *callConfig) { c.indexOpt.Radix = r }
}

// WithRadices runs the mixed-radix generalization of the index
// algorithm: subphase i uses radix radices[i]. Every radix must be at
// least 2 and the product must reach n. OptimalRadixSchedule computes
// the model-optimal vector. Overrides WithRadix and WithIndexAlgorithm.
func WithRadices(radices []int) CollectiveOption {
	return func(c *callConfig) { c.radices = slices.Clone(radices) }
}

// WithIndexAlgorithm selects the index schedule (IndexBruck,
// IndexDirect, IndexPairwiseXOR).
func WithIndexAlgorithm(a collective.IndexAlgorithm) CollectiveOption {
	return func(c *callConfig) { c.indexOpt.Algorithm = a }
}

// WithoutPacking disables message packing in the Bruck index algorithm
// (an ablation: every selected block travels in its own round).
func WithoutPacking() CollectiveOption {
	return func(c *callConfig) { c.indexOpt.NoPack = true }
}

// AutoSegments, passed to WithSegments, lets the SP-1 cost model pick
// the pipeline segment count per configuration.
const AutoSegments = collective.AutoSegments

// WithSegments pipelines the Bruck index schedule — and the ReduceBruck
// reduce-scatter phase of the reductions — over s segments: each block
// splits into s byte spans that stream through the round structure one
// merged round apart, draining in rounds + s - 1 merged rounds. That
// trades extra rounds for smaller per-round messages, a model-time win
// on large blocks (`bruckctl run -crossover-segments` says from where).
// s = 0 or 1 runs the monolithic schedule, AutoSegments picks by cost
// model, any other negative s is an error. Only the packed uniform
// Bruck schedules pipeline; everything else runs monolithic, and the
// compiler clamps s to the block size and the round count.
func WithSegments(s int) CollectiveOption {
	return func(c *callConfig) { c.segments = s }
}

// WithConcatAlgorithm selects the concatenation schedule
// (ConcatCirculant, ConcatFolklore, ConcatRing,
// ConcatRecursiveDoubling).
func WithConcatAlgorithm(a collective.ConcatAlgorithm) CollectiveOption {
	return func(c *callConfig) { c.concatOpt.Algorithm = a }
}

// WithLastRoundPolicy selects the circulant concatenation's behaviour
// in the special range (LastRoundPreferOptimal, LastRoundMinRounds,
// LastRoundMinVolume).
func WithLastRoundPolicy(p partition.Policy) CollectiveOption {
	return func(c *callConfig) { c.concatOpt.LastRound = p }
}

// WithAuto makes the ragged Index and Concat and the reductions pick
// the algorithm — and the radix — with the fewest T = C1*Beta + C2*Tau
// under p (which must pass Profile.Validate) among compiled candidates:
// padded Bruck at several radices against the direct exchange, padded
// circulant against the exact ring, and ring, halving and Bruck for the
// reductions. It overrides the algorithm options there and is ignored
// by the fixed-size Index and Concat (tune those with OptimalRadix),
// except on a machine with a nontrivial topology: there it also governs
// the fixed-size Index, Concat and AllReduce, pricing flat and
// hierarchical candidates with the topology's per-class profiles. The
// verdict is memoized, so a repeated auto call costs one cache lookup.
func WithAuto(p Profile) CollectiveOption {
	return func(c *callConfig) { prof := p; c.auto = &prof }
}

// Hierarchical selects the two-level schedule of the fixed-size Index,
// Concat and AllReduce on a machine created with WithTopology —
// intra-group phases, a leader phase and fan phases in one Plan whose
// Report splits C1/C2 per link class (Report.Intra/Inter). ReduceScatter
// rejects it; ragged, rooted and mixed-radix calls ignore it.
func Hierarchical() CollectiveOption {
	return func(c *callConfig) { c.hier = true }
}

// WithHierRadices sets the Bruck radices of a hierarchical Index: intra
// for the in-group all-to-alls, inter for the leader exchange (0 picks
// k+1). Every other schedule ignores it.
func WithHierRadices(intra, inter int) CollectiveOption {
	return func(c *callConfig) {
		c.hierOpt = collective.HierOptions{IntraRadix: intra, InterRadix: inter}
	}
}

// ReduceOp names a built-in elementwise reduction (ReduceSum,
// ReduceMin, ReduceMax).
type ReduceOp = buffers.ReduceOp

const (
	ReduceSum = buffers.Sum
	ReduceMin = buffers.Min
	ReduceMax = buffers.Max
)

// DataType names the element type of a built-in reduction kernel
// (Int32, Int64, Float32, Float64), encoded little-endian. Put and Get
// produce and read exactly this layout.
type DataType = buffers.DataType

const (
	Int32   = buffers.Int32
	Int64   = buffers.Int64
	Float32 = buffers.Float32
	Float64 = buffers.Float64
)

// CombineFunc combines src into dst elementwise: dst = dst op src, on
// equal-length, non-overlapping, non-empty slices it must not retain
// (src is pooled transport memory). Schedule-independent results need
// an associative, commutative reduction: each plan combines in a fixed
// order, but different algorithms associate differently, which
// floating-point sums notice at the last ulp.
type CombineFunc = buffers.CombineFunc

// ReduceAlgorithm selects the reduce-scatter schedule (and thereby the
// first phase of AllReduce).
type ReduceAlgorithm = collective.ReduceAlgorithm

const (
	// ReduceRing (default): n-1 rounds, (n-1)*b volume, any group size.
	ReduceRing = collective.ReduceRing
	// ReduceHalving is recursive vector halving: log2 n rounds, (n-1)*b
	// volume, power-of-two group sizes.
	ReduceHalving = collective.ReduceHalving
	// ReduceBruck combines on the radix-r Bruck index schedule, so
	// WithRadix dials the paper's C1/C2 trade-off for reductions too.
	ReduceBruck = collective.ReduceBruck
)

// WithKernel selects the built-in reduction kernel op over elements of
// type t, whose size must divide the block size. A reduction with
// nonzero blocks needs it or WithCombine.
func WithKernel(op ReduceOp, t DataType) CollectiveOption {
	return func(c *callConfig) {
		c.kernelOp, c.kernelTyp, c.kernelSet = op, t, true
		c.combine = nil
	}
}

// WithCombine plugs a user reduction into a reduction collective.
// Plans compiled for a user kernel are not cached — the plan cache
// cannot tell two functions apart — so hold the Plan from Compile when
// calling repeatedly. See CombineFunc for the safety rules.
func WithCombine(fn CombineFunc) CollectiveOption {
	return func(c *callConfig) {
		c.combine = fn
		c.kernelSet = false
	}
}

// WithReduceAlgorithm selects the reduce-scatter schedule (ReduceRing,
// ReduceHalving, ReduceBruck). For ReduceBruck, WithRadix selects the
// index radix. WithAuto overrides this with the cost-model verdict.
func WithReduceAlgorithm(a ReduceAlgorithm) CollectiveOption {
	return func(c *callConfig) { c.reduceAlg = a }
}

// Put encodes vals into dst little-endian, the layout the built-in
// kernels reduce over; dst must hold exactly len(vals) elements.
func Put[T int32 | int64 | float32 | float64](dst []byte, vals []T) { buffers.Put(dst, vals) }

// Get decodes src as little-endian elements of type T, into a fresh
// slice.
func Get[T int32 | int64 | float32 | float64](src []byte) []T { return buffers.Get[T](src) }

// plan is the one plan-resolution path of the Machine: a verb names its
// operation and block size or layout in s, plan folds every option in
// verbatim — collective.Spec documents which of them the selected
// schedule family reads — and fetches the plan from the machine's cache.
func (m *Machine) plan(s collective.Spec, opts []CollectiveOption) (*Plan, error) {
	cfg := callConfig{group: m.world}
	for _, opt := range opts {
		opt(&cfg)
	}
	s.Root, s.Index, s.Radices, s.Concat, s.Segments = cfg.root, cfg.indexOpt, cfg.radices, cfg.concatOpt, cfg.segments
	s.Hierarchical, s.Hier, s.Topology, s.Auto = cfg.hier, cfg.hierOpt, m.topo, cfg.auto
	if s.Op == collective.OpReduceScatter || s.Op == collective.OpAllReduce {
		// The built-in kernel named by WithKernel (with its element size
		// and cache identity) or the raw WithCombine function.
		s.Reduce = collective.ReduceOptions{Kernel: cfg.combine}
		if cfg.combine == nil && cfg.kernelSet {
			var err error
			if s.Reduce, err = collective.KernelOptions(cfg.kernelOp, cfg.kernelTyp); err != nil {
				return nil, err
			}
		}
		s.Reduce.Algorithm, s.Reduce.Radix = cfg.reduceAlg, cfg.indexOpt.Radix
		s.Reduce.LastRound = cfg.concatOpt.LastRound
	}
	return m.plans.Get(m.engine, cfg.group, s)
}

var (
	errInFlight  = fmt.Errorf("bruck: an asynchronous operation is already in flight (Wait on its Handle first)")
	errNilFlat   = fmt.Errorf("bruck: nil flat buffer")
	errNilRagged = fmt.Errorf("bruck: nil ragged buffer")
)

// spec names the schedule op runs on one side of a call: a Buffers'
// block size, or a RaggedBuffers' layout, which selects the ragged form.
func spec(op Op, d any) (collective.Spec, error) {
	switch d := d.(type) {
	case *Buffers:
		if d != nil {
			return collective.Spec{Op: op, BlockLen: d.BlockLen()}, nil
		}
	case *RaggedBuffers:
		switch {
		case d == nil:
			return collective.Spec{}, errNilRagged
		case op == Index:
			return collective.Spec{Op: collective.OpIndexV, Layout: d.Layout()}, nil
		case op == Concat:
			return collective.Spec{Op: collective.OpConcatV, Layout: d.Layout()}, nil
		}
		return collective.Spec{}, fmt.Errorf("bruck: %v takes Buffers (only Index and Concat have a ragged form)", op)
	case nil:
	default:
		return collective.Spec{}, fmt.Errorf("bruck: %T is neither a *Buffers nor a *RaggedBuffers", d)
	}
	return collective.Spec{}, errNilFlat
}

// claim makes a call the machine's one operation, decided at
// submission: a call made while an asynchronous one is pending fails at
// once, before it resolves a plan. The claimer releases it when its run
// ends. (Plans executed directly meet the engine's own check.)
func (m *Machine) claim() error {
	if !m.inflight.CompareAndSwap(false, true) {
		return errInFlight
	}
	return nil
}

// begin claims the machine for a Run or a Start and resolves the plan
// of its (in, out) pair, releasing the claim again on failure.
func (m *Machine) begin(op Op, in, out any, opts []CollectiveOption) (*Plan, error) {
	if err := m.claim(); err != nil {
		return nil, err
	}
	s, err := spec(op, in)
	var o collective.Spec
	if err == nil {
		o, err = spec(op, out)
	}
	if err == nil && (s.Layout == nil) != (o.Layout == nil) {
		err = fmt.Errorf("bruck: %v takes two Buffers or two RaggedBuffers, not one of each", op)
	}
	var pl *Plan
	if err == nil {
		pl, err = m.plan(s, opts)
	}
	if err != nil {
		m.inflight.Store(false)
	}
	return pl, err
}

// Run executes op once from in to out, two distinct Buffers or
// RaggedBuffers shaped as Op describes, and returns its Report. All
// copies work in caller-owned or pool-recycled memory: on a reused
// Machine a run allocates nothing per block or message.
func (m *Machine) Run(op Op, in, out any, opts ...CollectiveOption) (*Report, error) {
	pl, err := m.begin(op, in, out, opts)
	if err != nil {
		return nil, err
	}
	defer m.inflight.Store(false)
	return pl.Run(pl.Memory(in, out))
}

// Start is the non-blocking Run: it resolves the plan, starts the run
// on a background goroutine and returns its Handle, so the caller can
// overlap computation with the communication. Plan and in-flight errors
// return from Start, execution errors from Handle.Wait.
func (m *Machine) Start(op Op, in, out any, opts ...CollectiveOption) (*Handle, error) {
	pl, err := m.begin(op, in, out, opts)
	if err != nil {
		return nil, err
	}
	h := &Handle{done: make(chan struct{}), m: m}
	go func() {
		h.rep, h.err = pl.Run(pl.Memory(in, out))
		close(h.done)
	}()
	return h, nil
}

// Compile returns (and caches) the plan Run would execute for op on
// in, of which it reads only the block size or layout. The Plan is the
// cache's, shared by every caller who compiles the same configuration,
// and holds no buffers: RunPlans runs it on the sides each PlanRun
// names, as Run takes them.
func (m *Machine) Compile(op Op, in any, opts ...CollectiveOption) (*Plan, error) {
	s, err := spec(op, in)
	if err != nil {
		return nil, err
	}
	return m.plan(s, opts)
}

// Handle is the completion handle of an operation Start began. The
// operation owns its buffers until Wait (or a true Test): touching them
// earlier races with the running schedule, and any operation submitted
// to the Machine before then fails at once. Execution errors, watchdog
// fencing included, surface on Wait.
type Handle struct {
	done chan struct{}
	m    *Machine
	free sync.Once // the first Wait frees the Machine
	rep  *Report
	err  error
}

// Wait blocks until the operation completes and returns its Report and
// error. Every call returns the same pair; the first return frees the
// Machine and the buffers.
func (h *Handle) Wait() (*Report, error) {
	<-h.done
	h.free.Do(func() { h.m.inflight.Store(false) })
	return h.rep, h.err
}

// Test reports whether the operation has completed, without blocking.
// A true return has Wait's full effect: the result is ready and the
// Machine is free.
func (h *Handle) Test() bool {
	select {
	case <-h.done:
		h.Wait()
		return true
	default:
		return false
	}
}

// Report returns the completed operation's Report, or nil while it is
// still running (or if it failed — use Wait for the error).
func (h *Handle) Report() *Report {
	if !h.Test() {
		return nil
	}
	return h.rep
}

// Buffers is the block store of the fixed-size operations: one slab of
// n processor regions of equal blocks, Proc and Block returning
// in-place views; Op names the shapes each operation takes.
type Buffers = buffers.Buffers

// NewBuffers creates an all-zero flat buffer for procs processors with
// blocks blocks of blockLen bytes each.
func NewBuffers(procs, blocks, blockLen int) (*Buffers, error) {
	return buffers.New(procs, blocks, blockLen)
}

// NewIndexBuffers creates an n x n Buffers (see Op).
func NewIndexBuffers(n, blockLen int) (*Buffers, error) { return buffers.New(n, n, blockLen) }

// NewConcatBuffers creates an n x 1 Buffers (see Op).
func NewConcatBuffers(n, blockLen int) (*Buffers, error) { return buffers.New(n, 1, blockLen) }

// FromMatrix copies a block matrix — in[i][j] is block j of processor
// i, every block of one length — into a fresh Buffers; its ToMatrix
// copies one back out.
func FromMatrix(in [][][]byte) (*Buffers, error) { return buffers.FromMatrix(in) }

// FromVector copies one equal-length block per processor into a fresh
// n x 1 Buffers; its ToVector copies one back out.
func FromVector(in [][]byte) (*Buffers, error) { return buffers.FromVector(in) }

// FromRaggedMatrix is FromMatrix for blocks of any lengths, zero
// included: the RaggedBuffers' layout is derived from the lengths.
func FromRaggedMatrix(in [][][]byte) (*RaggedBuffers, error) { return buffers.FromRaggedMatrix(in) }

// FromRaggedVector is FromVector for blocks of any lengths.
func FromRaggedVector(in [][]byte) (*RaggedBuffers, error) { return buffers.FromRaggedVector(in) }

// Layout is the block-size table of a ragged operation: per-(src, dst)
// byte counts for Index (MPI_Alltoallv's), per-source counts for Concat
// (MPI_Allgatherv's). A uniform layout compiles to exactly the
// fixed-size operation's schedule.
type Layout = blocks.Layout

// NewIndexLayout builds an index layout from counts[i][j] = the number
// of bytes group rank i holds for rank j. Zero-length blocks are
// allowed; an all-equal table yields the uniform fast path.
func NewIndexLayout(counts [][]int) (*Layout, error) { return blocks.Ragged(counts) }

// NewConcatLayout builds a concatenation layout from counts[i] = group
// rank i's contribution in bytes.
func NewConcatLayout(counts []int) (*Layout, error) { return blocks.RaggedVector(counts) }

// RaggedBuffers is Buffers with block boundaries set by a Layout.
type RaggedBuffers = buffers.Ragged

// NewRaggedBuffers creates an all-zero ragged slab shaped by the
// layout.
func NewRaggedBuffers(l *Layout) (*RaggedBuffers, error) { return buffers.NewRagged(l) }

// Plan is a compiled collective schedule — rounds, partners and packing
// of one operation on one (group, block size, options) configuration —
// so repeated executions do no schedule work: the paper's schedules are
// fixed functions of (n, k, r). A Plan stays valid for the lifetime of
// its Machine, across recovery from a deadlocked run too.
type Plan = collective.Plan

// PlanRun is one plan of a RunPlans call and the two sides it runs on,
// typed and shaped as Run takes them for the plan's operation.
type PlanRun struct {
	Plan    *Plan
	In, Out any
}

// RunPlans executes several compiled plans of this machine, on pairwise
// disjoint groups and each on its own sides, in one call: dealt over
// the machine's cores once they copy enough to pay for it, or
// concurrently inside one engine run on a chaos or recording machine. Every plan keeps its
// own Report; results are byte-identical to running the plans one after
// another.
func (m *Machine) RunPlans(runs []PlanRun) ([]*Report, error) {
	if err := m.claim(); err != nil {
		return nil, err
	}
	defer m.inflight.Store(false)
	jobs := make([]collective.Job, len(runs))
	for i, r := range runs {
		jobs[i].Plan = r.Plan
		if r.Plan != nil {
			jobs[i].Mem = r.Plan.Memory(r.In, r.Out)
		}
	}
	return collective.ExecutePlans(m.engine, jobs)
}

// OptimalRadix returns the radix minimizing the linear-model time of
// the Bruck index for n processors, b-byte blocks and k ports under p;
// powerOfTwoOnly mirrors Section 3.5's tuning. It panics when k < 1 and
// n > 2.
func OptimalRadix(p Profile, n, b, k int, powerOfTwoOnly bool) int {
	return collective.OptimalRadix(p, n, b, k, powerOfTwoOnly)
}

// OptimalRadixSchedule returns the mixed-radix vector (for WithRadices)
// minimizing the index's linear-model time, by dynamic programming:
// never worse than the best uniform radix. It panics when k < 1.
func OptimalRadixSchedule(p Profile, n, b, k int) []int {
	return collective.OptimalRadixSchedule(p, n, b, k)
}

// MustNewMachine is NewMachine for known-good parameters; it panics on
// error. Intended for examples and tests.
func MustNewMachine(n int, opts ...MachineOption) *Machine {
	m, err := NewMachine(n, opts...)
	if err != nil {
		panic(fmt.Sprintf("bruck: %v", err))
	}
	return m
}

// The seven methods below exist only because the frozen benchmark/
// package calls them. Delete them in a benchmark-only PR.

// Index is Run(Index) on a block matrix; delete in a benchmark-only PR.
func (m *Machine) Index(in [][][]byte, opts ...CollectiveOption) ([][][]byte, *Report, error) {
	fin, err := FromMatrix(in)
	return m.matrix(Index, fin, err, opts)
}

// Concat is Run(Concat) on a block vector; delete in a benchmark-only PR.
func (m *Machine) Concat(in [][]byte, opts ...CollectiveOption) ([][][]byte, *Report, error) {
	fin, err := FromVector(in)
	return m.matrix(Concat, fin, err, opts)
}

// matrix runs op from a slab copied in from a block matrix into a fresh
// n x n one, and copies that out.
func (m *Machine) matrix(op Op, in *Buffers, err error, opts []CollectiveOption) ([][][]byte, *Report, error) {
	if err != nil {
		return nil, nil, err
	}
	out, err := NewIndexBuffers(in.Procs(), in.BlockLen())
	if err != nil {
		return nil, nil, err
	}
	rep, err := m.Run(op, in, out, opts...)
	if err != nil {
		return nil, nil, err
	}
	return out.ToMatrix(), rep, nil
}

// IndexFlat is Run(Index); delete in a benchmark-only PR.
func (m *Machine) IndexFlat(in, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.Run(Index, in, out, opts...)
}

// ConcatFlat is Run(Concat); delete in a benchmark-only PR.
func (m *Machine) ConcatFlat(in, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.Run(Concat, in, out, opts...)
}

// IndexVFlat is Run(Index) on ragged slabs; delete in a benchmark-only PR.
func (m *Machine) IndexVFlat(in, out *RaggedBuffers, opts ...CollectiveOption) (*Report, error) {
	return m.Run(Index, in, out, opts...)
}

// ConcatVFlat is Run(Concat) on ragged slabs; delete in a benchmark-only PR.
func (m *Machine) ConcatVFlat(in, out *RaggedBuffers, opts ...CollectiveOption) (*Report, error) {
	return m.Run(Concat, in, out, opts...)
}

// AllReduceFlat is Run(AllReduce); delete in a benchmark-only PR.
func (m *Machine) AllReduceFlat(in, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.Run(AllReduce, in, out, opts...)
}
