// Package bruck is a Go reproduction of "Efficient Algorithms for
// All-to-All Communications in Multiport Message-Passing Systems" by
// Bruck, Ho, Kipnis, Upfal and Weathersby (SPAA 1994; IEEE TPDS 8(11),
// 1997).
//
// It provides the two all-to-all collective operations of the paper on
// a simulated multiport fully connected message-passing machine:
//
//   - Index — all-to-all personalized communication (MPI_Alltoall),
//     via the radix-r "Bruck algorithm" family with its C1/C2
//     trade-off, plus direct-exchange and pairwise-XOR baselines;
//   - Concat — all-to-all broadcast (MPI_Allgather), via the optimal
//     circulant-graph algorithm with its table-partitioned last round,
//     plus folklore, ring and recursive-doubling baselines;
//
// together with one-to-all primitives (Broadcast, Gather, Scatter),
// machine cost models (the paper's linear model with the measured IBM
// SP-1 parameters), closed-form complexity predictions, lower bounds,
// and radix auto-tuning.
//
// # Quick start
//
//	m, _ := bruck.NewMachine(8)                    // 8 processors, 1 port
//	in := ...                                      // in[i][j] = block B[i,j]
//	out, rep, err := m.Index(in, bruck.WithRadix(2))
//	// out[i][j] == in[j][i]; rep.C1, rep.C2 are the paper's measures
//
// The machine is a simulation: one goroutine per processor, channels
// for messages, with the k-port constraint enforced per communication
// round. Complexity measures C1 (rounds) and C2 (sum over rounds of the
// largest message) are recorded from the actual schedule; Report.Time
// evaluates them under a machine profile such as bruck.SP1.
package bruck

import (
	"fmt"
	"sync/atomic"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// Machine is a simulated n-processor multiport fully connected
// message-passing system. Create one with NewMachine; a Machine may run
// any number of consecutive collective operations but is not safe for
// concurrent use.
//
// Every collective call resolves its plan the same way: its options
// become one collective.Spec and the machine's plan cache is asked for
// it — the first call with a configuration compiles its schedule, later
// calls replay the compiled Plan with zero schedule recomputation. The
// Compile methods expose the plans directly, and RunPlans executes
// plans on disjoint groups concurrently. The cache keys groups by
// pointer, so reuse the *Group value (World, or a stored NewGroup
// result) to hit it.
type Machine struct {
	engine *mpsim.Engine
	world  *Group
	plans  *collective.PlanCache
	// topo is the machine's two-level topology (WithTopology), nil on a
	// flat machine. It tags every simulated message with its link class,
	// licenses Hierarchical() schedules, and turns WithAuto into the
	// flat-vs-hierarchical dispatch.
	topo *costmodel.Topology
	// inflight marks the one operation the machine is running, blocking
	// or asynchronous (see exclusive).
	inflight atomic.Bool
}

// MachineOption configures NewMachine.
type MachineOption func(*machineConfig)

type machineConfig struct {
	ports    int
	validate bool
	record   bool
	backend  Backend
	chaos    ChaosConfig
	topo     *costmodel.Topology
}

// Backend names a simulator message-transport implementation. The
// paper's schedules are transport-agnostic, so every backend produces
// byte-identical results on identical schedules; backends trade
// simulator wall-clock speed against blocking behaviour.
type Backend = mpsim.Backend

const (
	// BackendChan (default) delivers messages over per-pair buffered Go
	// channels. Blocked processors park for free; best for debugging and
	// for machines much wider than the host.
	BackendChan = mpsim.BackendChan
	// BackendSlot delivers messages through lock-free shared-memory slot
	// rings, the fast backend for throughput work on machines that fit
	// the host's cores.
	BackendSlot = mpsim.BackendSlot
	// BackendChaos wraps chan or slot with seeded adversarial timing —
	// per-link latency jitter, cross-link reordering and straggler
	// processors — for proving schedules byte-correct under timing
	// perturbation. Configure it with WithChaos.
	BackendChaos = mpsim.BackendChaos
)

// ChaosConfig configures the chaos transport: the wrapped inner
// backend, the jitter seed and ceiling, and the straggler set. The zero
// value wraps BackendChan with default jitter. See mpsim.ChaosConfig.
type ChaosConfig = mpsim.ChaosConfig

// ParseBackend converts a command-line string ("chan", "slot",
// "chaos") into a Backend.
func ParseBackend(s string) (Backend, error) { return mpsim.ParseBackend(s) }

// Ports sets the number of communication ports k per processor: in each
// round a processor can send k messages and receive k messages
// (1 <= k <= n-1). The default is 1, the one-port model.
func Ports(k int) MachineOption {
	return func(c *machineConfig) { c.ports = k }
}

// Validate enables (default) or disables runtime schedule validation:
// the k-port constraint, round alignment of matching sends and
// receives, and schedule uniformity.
func Validate(on bool) MachineOption {
	return func(c *machineConfig) { c.validate = on }
}

// RecordEvents makes the machine log every message of each operation
// (round, endpoints, size), enabling CriticalPathTime. Off by default.
func RecordEvents() MachineOption {
	return func(c *machineConfig) { c.record = true }
}

// WithTransport selects the simulator's message transport backend:
// BackendChan (default), BackendSlot, or BackendChaos with its zero
// configuration (use WithChaos to configure it).
func WithTransport(b Backend) MachineOption {
	return func(c *machineConfig) { c.backend = b }
}

// WithChaos selects the chaos transport with the given configuration:
// the machine runs on cfg.Inner (chan or slot) with seeded adversarial
// timing injected on every link. Operation results — and their Reports'
// C1/C2 — are byte-identical to the plain backends'; only wall-clock
// timing changes.
func WithChaos(cfg ChaosConfig) MachineOption {
	return func(c *machineConfig) {
		c.backend = BackendChaos
		c.chaos = cfg
	}
}

// NewMachine creates a simulated machine with n processors.
func NewMachine(n int, opts ...MachineOption) (*Machine, error) {
	cfg := machineConfig{ports: 1, validate: true, backend: BackendChan}
	for _, opt := range opts {
		opt(&cfg)
	}
	eopts := []mpsim.Option{mpsim.Ports(cfg.ports), mpsim.Validate(cfg.validate),
		mpsim.Record(cfg.record), mpsim.WithTransport(cfg.backend)}
	if cfg.backend == BackendChaos {
		eopts = append(eopts, mpsim.WithChaos(cfg.chaos))
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

// CriticalPathTime evaluates the most recent operation's schedule under
// the linear model with per-processor clocks (the LogP-flavored
// accounting the paper contrasts with T = C1*beta + C2*tau in Section
// 1.2). It requires a machine created with RecordEvents and at least
// one completed operation. For the paper's symmetric schedules it
// equals Report.Time; for skewed schedules (e.g. the folklore
// baseline) it is smaller.
func (m *Machine) CriticalPathTime(p Profile) (float64, error) {
	metrics := m.engine.Metrics()
	if metrics == nil {
		if m.engine.ProgramsInLastRun() > 1 {
			return 0, fmt.Errorf("bruck: CriticalPathTime is unavailable after RunPlans (per-plan schedules; use the returned Reports)")
		}
		return 0, fmt.Errorf("bruck: CriticalPathTime before any operation")
	}
	events := metrics.Events()
	if events == nil {
		return 0, fmt.Errorf("bruck: CriticalPathTime requires a machine created with RecordEvents")
	}
	return costmodel.CriticalPath(p, m.engine.N(), events)
}

// CriticalPathTopoTime is CriticalPathTime under the machine's
// topology: each message is priced by its own link's profile — the
// pair override if one exists, otherwise the link class — so a
// hierarchical schedule's intra phases run on the fast clock. It
// requires a machine created with WithTopology and RecordEvents and at
// least one completed operation.
func (m *Machine) CriticalPathTopoTime() (float64, error) {
	if m.topo == nil {
		return 0, fmt.Errorf("bruck: CriticalPathTopoTime requires a machine created with WithTopology")
	}
	metrics := m.engine.Metrics()
	if metrics == nil {
		if m.engine.ProgramsInLastRun() > 1 {
			return 0, fmt.Errorf("bruck: CriticalPathTopoTime is unavailable after RunPlans (per-plan schedules; use the returned Reports)")
		}
		return 0, fmt.Errorf("bruck: CriticalPathTopoTime before any operation")
	}
	events := metrics.Events()
	if events == nil {
		return 0, fmt.Errorf("bruck: CriticalPathTopoTime requires a machine created with RecordEvents")
	}
	return costmodel.CriticalPathTopo(m.topo, m.engine.N(), events)
}

// N returns the number of processors.
func (m *Machine) N() int { return m.engine.N() }

// Ports returns the port count k.
func (m *Machine) Ports() int { return m.engine.Ports() }

// Transport returns the machine's transport backend.
func (m *Machine) Transport() Backend { return m.engine.Transport() }

// Topology returns the machine's topology, nil for a flat machine.
func (m *Machine) Topology() *Topology { return m.topo }

// Group names an ordered subset of processors, like an MPI group; all
// collective operations accept one via OnGroup. Group ranks are the
// positions in the id list.
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

// Topology describes a two-level machine: named groups of processors
// ("nodes", "racks") with a fast intra-group profile, a slower
// inter-group profile, and optional per-pair overrides. Attach one to
// a machine with WithTopology.
type Topology = costmodel.Topology

// NewTopology builds a validated two-level topology: groups[i]
// consecutive processors form group i, intra prices links inside a
// group and inter prices links between groups.
func NewTopology(groups []int, intra, inter Profile) (*Topology, error) {
	return costmodel.NewTopology(groups, intra, inter)
}

// ParseTopology parses the command-line topology syntax
// "<groups>x<size>[:beta,tau/beta,tau]" or
// "<size1>,<size2>,...[:beta,tau/beta,tau]"; without explicit
// profiles the intra profile defaults to SP1 and the inter profile to
// SP1 scaled by DefaultInterRatio.
func ParseTopology(s string) (*Topology, error) { return costmodel.ParseTopology(s) }

// ScaledProfile returns p with both parameters scaled by f — the
// quick way to build an "inter links are f times slower" profile.
func ScaledProfile(p Profile, f float64) Profile { return costmodel.Scaled(p, f) }

// DefaultInterRatio is the inter/intra cost ratio ParseTopology
// assumes when the spec names no profiles.
const DefaultInterRatio = costmodel.DefaultInterRatio

// WithTopology attaches a two-level topology to the machine. The
// topology must cover exactly the machine's n processors. Every
// simulated message is then tagged with its link class — Reports on
// hierarchical plans split C1/C2 per level (Report.Intra/Inter) — and
// the machine accepts Hierarchical() schedules; WithAuto on the
// fixed-size operations becomes the flat-vs-hierarchical dispatch.
func WithTopology(t *Topology) MachineOption {
	return func(c *machineConfig) { c.topo = t }
}

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
	group     *Group
	indexOpt  collective.IndexOptions
	radices   []int
	concatOpt collective.ConcatOptions
	reduceAlg collective.ReduceAlgorithm
	kernelOp  ReduceOp
	kernelTyp DataType
	kernelSet bool
	combine   CombineFunc
	auto      *Profile
	hier      bool
	hierOpt   collective.HierOptions
}

// OnGroup restricts the operation to an ordered subset of processors;
// inputs and outputs are indexed by group rank. The default is the
// whole machine.
func OnGroup(g *Group) CollectiveOption {
	return func(c *callConfig) { c.group = g }
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
	return func(c *callConfig) { c.radices = append([]int(nil), radices...) }
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
// merged round apart, so round r of segment i overlaps round r+1 of
// segment i-1 and the schedule drains in rounds + s - 1 merged rounds.
// Pipelining trades extra rounds for smaller per-round messages, a win
// in model time on large blocks: `bruckctl run -crossover-segments` and
// the cost model (SegmentedIndexCost) say from where. It copies no less
// — every payload of either schedule moves pack -> own -> land — and no
// wall-clock win is claimed for it.
//
// s = 0 or 1 runs the monolithic schedule; AutoSegments picks by cost
// model. Only the packed uniform Bruck schedules pipeline — baselines,
// the noPack ablation, mixed-radix, layout (V) plans and the circulant
// concatenation always run monolithic, and the compiler clamps s to the
// block size and the round count.
func WithSegments(s int) CollectiveOption {
	return func(c *callConfig) { c.indexOpt.Segments = s }
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

// WithAuto makes the ragged-layout operations (IndexV, ConcatV and
// their Flat/Compile variants) and the reductions (ReduceScatter,
// AllReduce and their Flat/Compile variants) pick the algorithm — and,
// where applicable, the radix — by evaluating the linear cost model
// T = C1*Beta + C2*Tau over the compiled candidate plans: for the index
// the Bruck family at several radices (on padded slots) against the
// padding-free direct exchange, for the concatenation the padded
// circulant schedule against the exact-extent ring, and for the
// reductions the ring against recursive halving (power-of-two groups)
// and the Bruck index schedule at the candidate radices. It overrides
// WithRadix/WithIndexAlgorithm/WithConcatAlgorithm/WithReduceAlgorithm
// on those operations and is ignored by the fixed-size index and
// concatenation (tune those with OptimalRadix).
// On a machine created with WithTopology (nontrivial), WithAuto
// additionally governs the fixed-size Index, Concat and AllReduce: the
// dispatch compiles flat and hierarchical candidates, prices each with
// the topology's per-class profiles (flat schedules pay the
// inter-group profile on every round; hierarchical ones pay each
// phase's class), and runs the winner. The verdict is memoized under
// the topology's digest, so repeated auto calls cost one cache lookup.
func WithAuto(p Profile) CollectiveOption {
	return func(c *callConfig) { prof := p; c.auto = &prof }
}

// Hierarchical selects the two-level schedule for the fixed-size
// Index, Concat and AllReduce on a machine created with WithTopology:
// concurrent intra-group phases, an inter-group phase over the group
// leaders, and redistribution fan phases, compiled as one Plan whose
// Report splits C1/C2 per link class (Report.Intra/Inter). The
// reductions support AllReduce only; the ragged (V) operations, the
// one-to-all primitives and mixed-radix calls ignore it.
func Hierarchical() CollectiveOption {
	return func(c *callConfig) { c.hier = true }
}

// WithHierRadices sets the per-level Bruck radices of a hierarchical
// index schedule: intra for the in-group all-to-alls, inter for the
// leader exchange. 0 picks the round-minimal k+1 at that level.
// Ignored by flat schedules and by the hierarchical concatenation and
// allreduce, which have no radix axis.
func WithHierRadices(intra, inter int) CollectiveOption {
	return func(c *callConfig) {
		c.hierOpt = collective.HierOptions{IntraRadix: intra, InterRadix: inter}
	}
}

// Reduction kernels: a reduction collective combines blocks where a
// plain collective copies them. WithKernel selects a built-in
// elementwise kernel; WithCombine plugs in an arbitrary user reduction
// over whole blocks.

// ReduceOp names a built-in elementwise reduction (ReduceSum,
// ReduceMin, ReduceMax).
type ReduceOp = buffers.ReduceOp

const (
	ReduceSum = buffers.Sum
	ReduceMin = buffers.Min
	ReduceMax = buffers.Max
)

// DataType names the element type of a built-in reduction kernel
// (Int32, Int64, Float32, Float64), encoded little-endian. The typed
// view helpers (PutFloat32s and friends) produce exactly this layout.
type DataType = buffers.DataType

const (
	Int32   = buffers.Int32
	Int64   = buffers.Int64
	Float32 = buffers.Float32
	Float64 = buffers.Float64
)

// CombineFunc combines src into dst elementwise: dst = dst op src. The
// slices have equal length and never overlap; the function must not
// retain them (src is pooled transport memory). It is never invoked on
// empty slabs. For results independent of the schedule the reduction
// must be associative and commutative; each compiled plan applies its
// combines in a fixed order, so repeated executions of one plan are
// bit-identical, but different algorithms associate differently — which
// floating-point summation notices at the last ulp.
type CombineFunc = buffers.CombineFunc

// ReduceAlgorithm selects the reduce-scatter schedule (and thereby the
// first phase of AllReduce).
type ReduceAlgorithm = collective.ReduceAlgorithm

const (
	// ReduceRing (default) passes each chunk's partial once around the
	// ring: n-1 rounds, (n-1)*b volume, any group size.
	ReduceRing = collective.ReduceRing
	// ReduceHalving is recursive vector halving: log2 n rounds, (n-1)*b
	// volume, power-of-two group sizes.
	ReduceHalving = collective.ReduceHalving
	// ReduceBruck runs the radix-r Bruck index schedule and combines at
	// the destination: C1/C2 are the index algorithm's, so WithRadix
	// dials the paper's trade-off for reductions too.
	ReduceBruck = collective.ReduceBruck
)

// ReduceKind selects the operation CompileReduce compiles:
// ReduceScatterKind or AllReduceKind.
type ReduceKind = collective.ReduceKind

const (
	ReduceScatterKind = collective.ReduceScatterKind
	AllReduceKind     = collective.AllReduceKind
)

// WithKernel selects the built-in elementwise reduction kernel for a
// reduction collective: op over elements of type t. The block size must
// be a multiple of the element size. Required (or WithCombine) on every
// reduction call with a nonzero block size.
func WithKernel(op ReduceOp, t DataType) CollectiveOption {
	return func(c *callConfig) {
		c.kernelOp, c.kernelTyp, c.kernelSet = op, t, true
		c.combine = nil
	}
}

// WithCombine plugs a user reduction into a reduction collective.
// Plans compiled for a user kernel are not cached — the plan cache
// cannot tell two functions apart — so hold the Plan from CompileReduce
// when calling repeatedly. See CombineFunc for the safety rules.
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

func (m *Machine) call(opts []CollectiveOption) callConfig {
	cfg := callConfig{group: m.world}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// plan is the one plan-resolution path of the Machine: a call names its
// operation and block size, layout or root in s, plan folds every option
// in verbatim — collective.Spec documents which of them the selected
// schedule family reads — and fetches the plan from the machine's cache.
func (m *Machine) plan(s collective.Spec, opts []CollectiveOption) (*Plan, error) {
	cfg := m.call(opts)
	s.Index, s.Radices, s.Concat = cfg.indexOpt, cfg.radices, cfg.concatOpt
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
		s.Reduce.Algorithm, s.Reduce.Radix, s.Reduce.Segments = cfg.reduceAlg, cfg.indexOpt.Radix, cfg.indexOpt.Segments
		s.Reduce.LastRound = cfg.concatOpt.LastRound
	}
	return m.plans.Get(m.engine, cfg.group, s)
}

// slices is the one adapter behind the [][][]byte entry points: the
// caller's blocks were copied into a flat slab (fin; err is that copy's
// error), the plan is resolved for the slab's block size or layout, and
// the schedule runs into a fresh slab of the plan's output shape, which
// is copied back out.
func (m *Machine) slices(op collective.Op, fin interface{ ToMatrix() [][][]byte }, err error, opts []CollectiveOption) ([][][]byte, *Report, error) {
	if err != nil {
		return nil, nil, err
	}
	if vin, ok := fin.(*RaggedBuffers); ok {
		pl, err := m.plan(collective.Spec{Op: op, Layout: vin.Layout()}, opts)
		if err != nil {
			return nil, nil, err
		}
		vout, err := buffers.NewRagged(pl.OutLayout())
		if err != nil {
			return nil, nil, err
		}
		rep, err := exclusive(m, func() (*Report, error) { return pl.ExecuteV(vin, vout) })
		if err != nil {
			return nil, nil, err
		}
		return vout.ToMatrix(), rep, nil
	}
	in := fin.(*Buffers)
	pl, err := m.plan(collective.Spec{Op: op, BlockLen: in.BlockLen()}, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := buffers.New(pl.Group().Size(), pl.OutBlocks(), in.BlockLen())
	if err != nil {
		return nil, nil, err
	}
	rep, err := exclusive(m, func() (*Report, error) { return pl.Execute(in, out) })
	if err != nil {
		return nil, nil, err
	}
	return out.ToMatrix(), rep, nil
}

var errInFlight = fmt.Errorf("bruck: an asynchronous operation is already in flight (Wait on its Handle first)")

// exclusive runs one operation as the machine's only one, decided at
// submission: a call made while an asynchronous operation is pending
// fails at once and the accepted one completes. (The engine's own
// overlap check remains for Plans executed directly.)
func exclusive[T any](m *Machine, run func() (T, error)) (res T, err error) {
	if !m.inflight.CompareAndSwap(false, true) {
		return res, errInFlight
	}
	defer m.inflight.Store(false)
	return run()
}

// flat resolves the plan of a flat-buffer call and executes it once.
func (m *Machine) flat(op collective.Op, in, out *Buffers, opts []CollectiveOption) (*Report, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("bruck: nil flat buffer")
	}
	pl, err := m.plan(collective.Spec{Op: op, BlockLen: in.BlockLen()}, opts)
	if err != nil {
		return nil, err
	}
	return exclusive(m, func() (*Report, error) { return pl.Execute(in, out) })
}

// Index performs all-to-all personalized communication
// (MPI_Alltoall): in[i][j] is block B[i,j], the block processor i holds
// for processor j; the result satisfies out[i][j] = in[j][i]. All
// blocks must have the same size.
//
// Index is a convenience adapter over IndexFlat: the block matrix is
// copied into a flat buffer, the zero-copy path runs, and the result is
// copied back out as fresh slices. Allocation-sensitive callers should
// use IndexFlat.
func (m *Machine) Index(in [][][]byte, opts ...CollectiveOption) ([][][]byte, *Report, error) {
	fin, err := buffers.FromMatrix(in)
	return m.slices(collective.OpIndex, fin, err, opts)
}

// Concat performs all-to-all broadcast (MPI_Allgather): in[i] is block
// B[i]; afterwards every processor holds the full concatenation,
// out[i][j] = in[j]. All blocks must have the same size.
//
// Concat is a convenience adapter over ConcatFlat; allocation-sensitive
// callers should use ConcatFlat.
func (m *Machine) Concat(in [][]byte, opts ...CollectiveOption) ([][][]byte, *Report, error) {
	fin, err := buffers.FromVector(in)
	return m.slices(collective.OpConcat, fin, err, opts)
}

// Buffers is the flat block store of the zero-copy collective paths:
// one contiguous byte slab holding, for each of n processors, a fixed
// number of fixed-size blocks. Proc and Block return in-place views,
// never copies. See NewIndexBuffers and NewConcatBuffers for the shapes
// the flat operations expect.
type Buffers = buffers.Buffers

// NewBuffers creates an all-zero flat buffer for procs processors with
// blocks blocks of blockLen bytes each.
func NewBuffers(procs, blocks, blockLen int) (*Buffers, error) {
	return buffers.New(procs, blocks, blockLen)
}

// NewIndexBuffers creates an index-shaped flat buffer (n processors
// with n blocks of blockLen bytes each), the layout IndexFlat expects
// for both its input and its output: block j of processor region i is
// B[i, j].
func NewIndexBuffers(n, blockLen int) (*Buffers, error) {
	return buffers.New(n, n, blockLen)
}

// NewConcatBuffers creates a concat-shaped flat input buffer (n
// processors with one block of blockLen bytes each), the layout
// ConcatFlat expects for its input; its output is index-shaped
// (NewIndexBuffers).
func NewConcatBuffers(n, blockLen int) (*Buffers, error) {
	return buffers.New(n, 1, blockLen)
}

// IndexFlat is the zero-copy index operation: in and out are
// index-shaped flat buffers (NewIndexBuffers) for the group size n;
// afterwards out.Block(i, j) equals in.Block(j, i). in and out must be
// distinct; out is fully overwritten. The schedule — and therefore the
// Report — is identical to Index's, but packing, unpacking and receives
// all work in caller-owned or pool-recycled contiguous memory: on a
// reused Machine the operation performs no per-block or per-message
// allocations.
func (m *Machine) IndexFlat(in, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.flat(collective.OpIndex, in, out, opts)
}

// ConcatFlat is the zero-copy concatenation: in is a concat-shaped flat
// buffer (NewConcatBuffers) and out an index-shaped one
// (NewIndexBuffers); afterwards out.Block(i, j) equals in.Block(j, 0)
// for every member i. The output slab doubles as the algorithm's
// accumulation memory, so beyond pooled transport buffers the operation
// allocates nothing on a reused Machine.
func (m *Machine) ConcatFlat(in, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.flat(collective.OpConcat, in, out, opts)
}

// Handle is the completion handle of a non-blocking collective
// (IndexAsync, ConcatAsync, AllReduceAsync). Exactly one operation may
// be in flight per Machine; the operation owns its input and output
// buffers until Wait (or a true Test) — touching them earlier races
// with the running schedule, and any operation submitted to the Machine
// before then, blocking or asynchronous, fails at once while this one
// completes. Execution errors — including the engine's deadlock-watchdog
// fencing, identical to the blocking path's — surface on Wait.
type Handle struct {
	done chan struct{}
	rep  *Report
	err  error
}

// Wait blocks until the operation completes and returns its Report and
// error. Wait is idempotent: every call returns the same pair, and the
// first return re-licenses the Machine (and the buffers) for the next
// operation.
func (h *Handle) Wait() (*Report, error) {
	<-h.done
	return h.rep, h.err
}

// Test reports whether the operation has completed, without blocking.
// A true return has Wait's full effect: the result is ready and the
// Machine is free.
func (h *Handle) Test() bool {
	select {
	case <-h.done:
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

// async resolves the plan synchronously (the plan cache is confined to
// the caller's goroutine), claims the machine (see exclusive) until the
// operation completes and runs it on a background goroutine: resolution
// and in-flight failures are synchronous, execution failures surface on Wait.
func (m *Machine) async(op collective.Op, in, out *Buffers, opts []CollectiveOption) (*Handle, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("bruck: nil flat buffer")
	}
	pl, err := m.plan(collective.Spec{Op: op, BlockLen: in.BlockLen()}, opts)
	if err != nil {
		return nil, err
	}
	if !m.inflight.CompareAndSwap(false, true) {
		return nil, errInFlight
	}
	h := &Handle{done: make(chan struct{})}
	go func() {
		h.rep, h.err = pl.Execute(in, out)
		m.inflight.Store(false)
		close(h.done)
	}()
	return h, nil
}

// IndexAsync is the non-blocking IndexFlat: it compiles (or fetches)
// the plan synchronously, starts the exchange on a background
// goroutine, and returns a Handle immediately, so the caller can
// overlap independent computation with the communication — the overlap
// the paper's C1*beta start-up term prices. in and out follow
// IndexFlat's contract and belong to the operation until Wait.
func (m *Machine) IndexAsync(in, out *Buffers, opts ...CollectiveOption) (*Handle, error) {
	return m.async(collective.OpIndex, in, out, opts)
}

// ConcatAsync is the non-blocking ConcatFlat; in is concat-shaped and
// out index-shaped, as there.
func (m *Machine) ConcatAsync(in, out *Buffers, opts ...CollectiveOption) (*Handle, error) {
	return m.async(collective.OpConcat, in, out, opts)
}

// AllReduceAsync is the non-blocking AllReduceFlat; in and out are both
// index-shaped, as there.
func (m *Machine) AllReduceAsync(in, out *Buffers, opts ...CollectiveOption) (*Handle, error) {
	return m.async(collective.OpAllReduce, in, out, opts)
}

// Layout describes the block-size structure of a ragged collective: a
// table of per-(src, dst) byte counts for IndexV (MPI_Alltoallv's
// counts) or per-source counts for ConcatV (MPI_Allgatherv's). Uniform
// layouts — including ragged-constructed tables whose entries are all
// equal — compile to exactly the schedules of the fixed-size
// operations. See NewIndexLayout and NewConcatLayout.
type Layout = blocks.Layout

// NewIndexLayout builds an index layout from counts[i][j] = the number
// of bytes group rank i holds for rank j. Zero-length blocks are
// allowed; an all-equal table yields the uniform fast path.
func NewIndexLayout(counts [][]int) (*Layout, error) { return blocks.Ragged(counts) }

// NewConcatLayout builds a concatenation layout from counts[i] = group
// rank i's contribution in bytes.
func NewConcatLayout(counts []int) (*Layout, error) { return blocks.RaggedVector(counts) }

// RaggedBuffers is the flat block store of the ragged collective paths:
// one contiguous slab whose block boundaries follow a Layout instead of
// a fixed stride. Block and Proc return in-place views, never copies.
// IndexVFlat takes a slab of the plan's layout and one of its
// transpose; ConcatVFlat takes the n x 1 input layout and its n x n
// ConcatOut shape.
type RaggedBuffers = buffers.Ragged

// NewRaggedBuffers creates an all-zero ragged slab shaped by the
// layout.
func NewRaggedBuffers(l *Layout) (*RaggedBuffers, error) { return buffers.NewRagged(l) }

// IndexV performs all-to-all personalized communication with
// variable-size blocks (MPI_Alltoallv): in[i][j] is the block group
// rank i holds for rank j, and block lengths may differ freely —
// including zero. The layout is derived from the lengths themselves;
// the result satisfies out[i][j] = in[j][i]. On equal-length input
// IndexV is byte- and Report-identical to Index.
//
// IndexV is a convenience adapter over IndexVFlat (one copy in, one
// copy out); allocation-sensitive callers should use IndexVFlat.
func (m *Machine) IndexV(in [][][]byte, opts ...CollectiveOption) ([][][]byte, *Report, error) {
	fin, err := buffers.FromRaggedMatrix(in)
	return m.slices(collective.OpIndexV, fin, err, opts)
}

// ConcatV performs all-to-all broadcast with variable-size
// contributions (MPI_Allgatherv): in[i] is group rank i's block, of any
// length; afterwards out[i][j] = in[j] for every member i. On
// equal-length input ConcatV is byte- and Report-identical to Concat.
//
// ConcatV is a convenience adapter over ConcatVFlat; allocation-
// sensitive callers should use ConcatVFlat.
func (m *Machine) ConcatV(in [][]byte, opts ...CollectiveOption) ([][][]byte, *Report, error) {
	fin, err := buffers.FromRaggedVector(in)
	return m.slices(collective.OpConcatV, fin, err, opts)
}

// IndexVFlat is the zero-copy ragged index: in is a RaggedBuffers of
// the call's n x n layout and out one of its transpose (afterwards
// out.Block(i, j) equals in.Block(j, i) at its true length). Like
// IndexFlat it routes through the plan cache — here under layout-digest
// keys — so repeated layouts compile once, and on a reused Machine the
// steady state performs no per-block or per-message allocations.
func (m *Machine) IndexVFlat(in, out *RaggedBuffers, opts ...CollectiveOption) (*Report, error) {
	return m.flatV(collective.OpIndexV, in, out, opts)
}

// flatV is flat for the ragged operations.
func (m *Machine) flatV(op collective.Op, in, out *RaggedBuffers, opts []CollectiveOption) (*Report, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("bruck: nil ragged buffer")
	}
	pl, err := m.plan(collective.Spec{Op: op, Layout: in.Layout()}, opts)
	if err != nil {
		return nil, err
	}
	return exclusive(m, func() (*Report, error) { return pl.ExecuteV(in, out) })
}

// ConcatVFlat is the zero-copy ragged concatenation: in is a
// RaggedBuffers of the n x 1 contribution layout and out one of its
// ConcatOut shape (afterwards out.Block(i, j) equals in.Block(j, 0)).
func (m *Machine) ConcatVFlat(in, out *RaggedBuffers, opts ...CollectiveOption) (*Report, error) {
	return m.flatV(collective.OpConcatV, in, out, opts)
}

// CompileIndexV compiles (and caches) the ragged index schedule for the
// layout. With WithAuto the returned plan is the cost-model winner over
// the candidate algorithms and radices. The plan's ExecuteV takes a
// slab of the layout and one of its transpose; BindV attaches such a
// pair for RunPlans, where ragged and fixed-size plans may run
// concurrently on disjoint groups.
func (m *Machine) CompileIndexV(l *Layout, opts ...CollectiveOption) (*Plan, error) {
	return m.plan(collective.Spec{Op: collective.OpIndexV, Layout: l}, opts)
}

// CompileConcatV compiles (and caches) the ragged concatenation
// schedule for the layout (circulant on padded slots, or the
// exact-extent ring via WithConcatAlgorithm/WithAuto).
func (m *Machine) CompileConcatV(l *Layout, opts ...CollectiveOption) (*Plan, error) {
	return m.plan(collective.Spec{Op: collective.OpConcatV, Layout: l}, opts)
}

// Plan is a compiled collective schedule: the complete round, partner
// and packing layout of one operation on one (group, block size,
// options) configuration, precomputed so repeated executions perform no
// schedule work at all — the paper's schedules are fixed functions of
// (n, k, r), so one compilation serves every invocation. Obtain plans
// from CompileIndex/CompileConcat, run one with Plan.Execute, or run
// several disjoint-group plans concurrently with RunPlans. A Plan
// remains valid for the lifetime of its Machine, including across
// recovery from a deadlocked run.
type Plan = collective.Plan

// CompileIndex compiles (and caches) the index schedule for the given
// block size and options. The returned plan's Execute takes
// index-shaped input and output buffers (NewIndexBuffers) and produces
// exactly what IndexFlat would — IndexFlat itself is a thin wrapper
// that compiles through the same cache and executes once.
func (m *Machine) CompileIndex(blockLen int, opts ...CollectiveOption) (*Plan, error) {
	return m.plan(collective.Spec{Op: collective.OpIndex, BlockLen: blockLen}, opts)
}

// CompileConcat compiles (and caches) the concatenation schedule for
// the given block size and options — including the circulant
// algorithm's last-round table partition, the expensive part of
// per-call schedule construction. The returned plan's Execute takes a
// concat-shaped input (NewConcatBuffers) and an index-shaped output
// (NewIndexBuffers).
func (m *Machine) CompileConcat(blockLen int, opts ...CollectiveOption) (*Plan, error) {
	return m.plan(collective.Spec{Op: collective.OpConcat, BlockLen: blockLen}, opts)
}

// RunPlans executes several compiled plans concurrently inside one
// engine run. The plans must belong to this machine, their groups must
// be pairwise disjoint, and each must carry buffers attached with
// Plan.Bind (BindV for layout plans). Fixed-size, ragged and reduction
// plans may share a pass. Every plan keeps its own Report (per-group
// metrics); the k-port constraint is still enforced per processor.
// Results are byte-identical to executing the plans sequentially.
func (m *Machine) RunPlans(plans []*Plan) ([]*Report, error) {
	return exclusive(m, func() ([]*Report, error) { return collective.ExecutePlans(m.engine, plans) })
}

// ReduceScatterFlat is the zero-copy reduce-scatter: in is an
// index-shaped flat buffer (NewIndexBuffers) whose Block(i, j) is group
// rank i's contribution to chunk j, and out a concat-shaped one
// (NewConcatBuffers); afterwards out.Block(i, 0) is the elementwise
// combination over j of in.Block(j, i) under the kernel selected with
// WithKernel or WithCombine. The data movement is the index
// operation's; the combine is applied on receive in place of the plain
// copy. ReduceScatterFlat routes through the plan cache exactly like
// IndexFlat.
func (m *Machine) ReduceScatterFlat(in, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.flat(collective.OpReduceScatter, in, out, opts)
}

// AllReduceFlat is the zero-copy allreduce: in and out are both
// index-shaped (NewIndexBuffers), in.Block(i, j) is rank i's
// contribution to chunk j, and afterwards out.Block(i, j) is the
// combination over p of in.Block(p, j) — identical on every rank. The
// schedule is the classic composition reduce-scatter + allgather: the
// reduce-scatter phase selected by WithReduceAlgorithm (or WithAuto)
// followed by the paper's circulant concatenation, inside one simulated
// run.
func (m *Machine) AllReduceFlat(in, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.flat(collective.OpAllReduce, in, out, opts)
}

// ReduceScatter is the legacy-slice reduce-scatter: in[i][j] is group
// rank i's contribution to chunk j (all blocks equal-size), and the
// result's element i is rank i's fully combined chunk i. A convenience
// adapter over ReduceScatterFlat — one copy in, one copy out;
// allocation-sensitive callers should use ReduceScatterFlat.
func (m *Machine) ReduceScatter(in [][][]byte, opts ...CollectiveOption) ([][]byte, *Report, error) {
	fin, err := buffers.FromMatrix(in)
	mat, rep, err := m.slices(collective.OpReduceScatter, fin, err, opts)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, len(mat))
	for i := range mat {
		out[i] = mat[i][0]
	}
	return out, rep, nil
}

// AllReduce is the legacy-slice allreduce: in[i][j] is group rank i's
// contribution to chunk j; the result satisfies out[i][j] = the
// combination over p of in[p][j] on every rank i. A convenience adapter
// over AllReduceFlat.
func (m *Machine) AllReduce(in [][][]byte, opts ...CollectiveOption) ([][][]byte, *Report, error) {
	fin, err := buffers.FromMatrix(in)
	return m.slices(collective.OpAllReduce, fin, err, opts)
}

// CompileReduce compiles (and caches) the reduction selected by kind —
// ReduceScatterKind or AllReduceKind — for the given block size and
// options. The returned plan's Execute takes an index-shaped input and
// a concat-shaped (reduce-scatter) or index-shaped (allreduce) output;
// Bind attaches such a pair for RunPlans, where reduction plans run
// concurrently with index, concat and layout plans on disjoint groups.
// With WithAuto the returned plan is the cost-model winner over the
// candidate reduce-scatter schedules.
func (m *Machine) CompileReduce(kind ReduceKind, blockLen int, opts ...CollectiveOption) (*Plan, error) {
	return m.plan(collective.Spec{Op: kind.Op(), BlockLen: blockLen}, opts)
}

// Typed element views, re-exported from the buffer layer: encode typed
// vectors into the little-endian byte layout the built-in kernels
// reduce over, and decode slabs back. The Put variants require dst to
// hold exactly len(vals) elements.

// PutInt32s encodes vals into dst little-endian.
func PutInt32s(dst []byte, vals []int32) { buffers.PutInt32s(dst, vals) }

// Int32s decodes src as little-endian int32 elements.
func Int32s(src []byte) []int32 { return buffers.Int32s(src) }

// PutInt64s encodes vals into dst little-endian.
func PutInt64s(dst []byte, vals []int64) { buffers.PutInt64s(dst, vals) }

// Int64s decodes src as little-endian int64 elements.
func Int64s(src []byte) []int64 { return buffers.Int64s(src) }

// PutFloat32s encodes vals into dst little-endian.
func PutFloat32s(dst []byte, vals []float32) { buffers.PutFloat32s(dst, vals) }

// Float32s decodes src as little-endian float32 elements.
func Float32s(src []byte) []float32 { return buffers.Float32s(src) }

// PutFloat64s encodes vals into dst little-endian.
func PutFloat64s(dst []byte, vals []float64) { buffers.PutFloat64s(dst, vals) }

// Float64s decodes src as little-endian float64 elements.
func Float64s(src []byte) []float64 { return buffers.Float64s(src) }

// rooted resolves the plan of a one-to-all primitive and executes it once:
// ranks is the one-block-per-member side, at the side only the root has
// (a broadcast's data, which sets the block size ranks must match).
func (m *Machine) rooted(op collective.Op, root int, ranks *Buffers, at []byte, opts []CollectiveOption) (*Report, error) {
	if ranks == nil {
		return nil, fmt.Errorf("bruck: nil flat buffer")
	}
	blockLen := ranks.BlockLen()
	if op == collective.OpBroadcast {
		blockLen = len(at)
	}
	pl, err := m.plan(collective.Spec{Op: op, BlockLen: blockLen, Root: root}, opts)
	if err != nil {
		return nil, err
	}
	return exclusive(m, func() (*Report, error) { return pl.ExecuteRooted(ranks, at) })
}

// vector is the one adapter behind the [][]byte primitives: the caller's
// blocks (a broadcast's one) are copied into a slab, and the plan runs
// around a fresh slab of one block per member, which is copied back out.
func (m *Machine) vector(op collective.Op, root int, in [][]byte, opts []CollectiveOption) ([][]byte, *Report, error) {
	fin, err := buffers.FromVector(in)
	if err != nil {
		return nil, nil, err
	}
	pl, err := m.plan(collective.Spec{Op: op, BlockLen: fin.BlockLen(), Root: root}, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := buffers.New(pl.Group().Size(), 1, fin.BlockLen())
	if err != nil {
		return nil, nil, err
	}
	ranks, at := res, fin.Bytes()
	if op == collective.OpGather {
		ranks, at = fin, res.Bytes()
	}
	rep, err := exclusive(m, func() (*Report, error) { return pl.ExecuteRooted(ranks, at) })
	if err != nil {
		return nil, nil, err
	}
	out, err := res.ToVector()
	return out, rep, err
}

// Broadcast sends root's data to every group member; the result holds
// each member's copy. A copy-out adapter over BroadcastInto.
func (m *Machine) Broadcast(root int, data []byte, opts ...CollectiveOption) ([][]byte, *Report, error) {
	return m.vector(collective.OpBroadcast, root, [][]byte{data}, opts)
}

// Gather collects one equal-size block from every group member at
// root, in group-rank order. A copy-in/copy-out adapter over GatherInto.
func (m *Machine) Gather(root int, in [][]byte, opts ...CollectiveOption) ([][]byte, *Report, error) {
	return m.vector(collective.OpGather, root, in, opts)
}

// Scatter distributes root's per-member blocks: member j receives
// in[j]. A copy-in/copy-out adapter over ScatterInto.
func (m *Machine) Scatter(root int, in [][]byte, opts ...CollectiveOption) ([][]byte, *Report, error) {
	return m.vector(collective.OpScatter, root, in, opts)
}

// BroadcastInto is the caller-owned-memory broadcast: root's data lands
// in out.Block(i, 0) of a concat-shaped Buffers (NewConcatBuffers with
// blockLen = len(data)); no per-member result slices are allocated. The
// three Into primitives are cached plans on one (k+1)-nomial tree. Such
// a one-directional tree drains the senders' buffer pools into the
// receivers' capped ones, so on a reused Machine they still allocate
// transport buffers: 0.5-2.1 MB/op measured at n = 16, 64 KiB blocks.
func (m *Machine) BroadcastInto(root int, data []byte, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.rooted(collective.OpBroadcast, root, out, data, opts)
}

// GatherInto is the caller-owned-memory gather: each member's block is
// in.Block(me, 0) of a concat-shaped Buffers, and the concatenation
// lands at the root, in group-rank order, in the caller's out slice of
// n*blockLen bytes. Non-roots never touch out.
func (m *Machine) GatherInto(root int, in *Buffers, out []byte, opts ...CollectiveOption) (*Report, error) {
	return m.rooted(collective.OpGather, root, in, out, opts)
}

// ScatterInto is the caller-owned-memory scatter: in is the root's
// per-member blocks as one n*blockLen slice in group-rank order, and
// member j's block lands in out.Block(j, 0) of a concat-shaped
// Buffers. in is only read at the root.
func (m *Machine) ScatterInto(root int, in []byte, out *Buffers, opts ...CollectiveOption) (*Report, error) {
	return m.rooted(collective.OpScatter, root, out, in, opts)
}

// OptimalRadix returns the radix minimizing the linear-model time of
// the Bruck index algorithm for n processors, block size b bytes and k
// ports under the given machine profile. With powerOfTwoOnly it mirrors
// the paper's Section 3.5 tuning over power-of-two radices. It panics
// when k < 1 and n > 2.
func OptimalRadix(p Profile, n, b, k int, powerOfTwoOnly bool) int {
	return collective.OptimalRadix(p, n, b, k, powerOfTwoOnly)
}

// PredictIndex returns the closed-form (C1, C2) of the radix-r Bruck
// index algorithm for n processors, block size b and k ports, in
// rounds and bytes. It panics when k < 1.
func PredictIndex(n, b, r, k int) (c1, c2 int) {
	return collective.IndexCost(n, b, r, k)
}

// OptimalRadixSchedule returns the mixed-radix vector minimizing the
// linear-model time of the index operation, found by dynamic
// programming; it is never worse than the best uniform radix. Use it
// with WithRadices. It panics when k < 1.
func OptimalRadixSchedule(p Profile, n, b, k int) []int {
	return collective.OptimalRadixSchedule(p, n, b, k)
}

// PredictIndexMixed returns the closed-form (C1, C2) of the
// mixed-radix index algorithm. It panics when k < 1.
func PredictIndexMixed(n, b int, radices []int, k int) (c1, c2 int) {
	return collective.IndexMixedCost(n, b, radices, k)
}

// PredictConcat returns the closed-form (C1, C2) of the circulant
// concatenation under the default last-round policy.
func PredictConcat(n, b, k int) (c1, c2 int, err error) {
	return collective.ConcatCost(n, b, k, partition.PreferOptimal)
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
