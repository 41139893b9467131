// Package collective implements the all-to-all communication algorithms
// of Bruck, Ho, Kipnis, Upfal and Weathersby on the mpsim multiport
// fully connected message-passing simulator:
//
//   - Index (all-to-all personalized communication, MPI_Alltoall): the
//     radix-r algorithm family of Section 3 with the C1/C2 trade-off,
//     for the one-port and k-port models, plus the direct-exchange and
//     pairwise-XOR baselines.
//
//   - Concatenation (all-to-all broadcast, MPI_Allgather): the
//     circulant-graph algorithm of Section 4 with the table-partitioned
//     last round, plus the folklore gather+broadcast, ring and
//     recursive-doubling baselines.
//
//   - The one-to-all primitives (broadcast, gather, scatter) on the
//     (k+1)-nomial tree the folklore baseline runs up and down.
//
// All operations take an mpsim.Engine and an mpsim.Group and run as SPMD
// programs: processors in the group execute the schedule, processors
// outside it idle. Inputs and outputs are indexed by group rank.
//
// # One Spec, one Get
//
// The paper's schedules are fixed functions of a small tuple — (n, k,
// r) plus the block size — and nothing about them depends on the
// payload, so naming a schedule, compiling it and executing it are
// three separate things, each with exactly one path (spec.go):
//
//   - A Spec is the tuple: the operation (Op), the block size or the
//     blocks.Layout, the operation's options, and the two things that
//     select a family instead of one algorithm — Hierarchical under a
//     costmodel.Topology, and the Auto profile. Engine and group are
//     the other two coordinates of every call. The one-to-all
//     primitives (OpBroadcast, OpGather, OpScatter) read the block size
//     and Root, the root argument of the public methods, and no option.
//   - Spec.canonicalize is the one place a spec is judged: it makes
//     every rejection that needs only the spec (empty group, member
//     outside the engine, negative block size, nil or misshapen layout,
//     a root outside the group, radix and radices ranges,
//     power-of-two algorithms on other group
//     sizes, algorithms with no layout variant, hierarchical without a
//     topology or for a reduce-scatter, missing kernel, element-size
//     mismatch; the text of each is pinned by TestSpecRejections), so
//     every route to a plan rejects the same input with the same
//     error, and it zeroes every field the selected family ignores —
//     radix and NoPack off the Bruck schedules, Segments everywhere
//     but a packed uniform Bruck index or ReduceBruck and a segment
//     count of 1, the last-round policy where no circulant phase runs, the hier radices
//     off the hierarchical index, everything a dispatcher or the
//     two-level compiler overrides, every option on a one-to-all
//     primitive and the root off one — so equal schedules are equal
//     specs.
//   - ParseSpec(op, alg) is the inverse of the name tables the String
//     methods print from: the one place a tool's operation and
//     algorithm names become a Spec.
//   - Compile(e, g, spec) lowers a canonical spec: every compiler is a
//     small pure function to a step program (program.go).
//   - PlanCache.Get(e, g, spec) is Compile behind a memo. Its key
//     (planKey) is the comparable projection of the canonical spec,
//     built in one function (keyOf) and checked field by field against
//     Spec by TestKeyOfCoversEverySpecField; layout, topology and radices enter
//     by 64-bit digest and one confirm step holds them Equal on a hit
//     (a colliding digest compiles fresh and uncached, never serves the
//     wrong schedule). A hit allocates nothing. The cache holds at most
//     256 entries and evicts the least recently used.
//   - An Auto spec names no single schedule: Get (or Compile)
//     enumerates its candidates (Spec.candidates), resolves each the
//     same way, and keeps the arg-min of T = C1*beta + C2*tau — the
//     Section 3.5 rule — priced by Plan.Time under the caller's profile
//     on a flat machine and by Plan.TimeTopo under a nontrivial
//     topology. The verdict is memoized under the auto spec itself, so
//     the policy, the kind and the kernel are part of its key by
//     construction and a repeated auto call costs one lookup.
//
// The public Machine API turns every call's options into one Spec and
// calls Get; nothing else hands out plans.
//
// # Flat buffers
//
// Caller bytes reach a plan one way: a Memory (oracle.go), the input and
// output side of every rank for one execution, built by Plan.Memory or
// Plan.Alloc and run by Plan.Run or ExecutePlans. A side is a
// buffers.Buffers slab, under a layout a buffers.Ragged slab, and on a
// one-to-all primitive the root's side is the root's bytes alone; one
// check (Plan.fits) holds every side to the plan's shape. A payload is
// packed into a pool-recycled
// buffer, handed over and landed in caller-owned memory by its
// receiver, and nothing is rotated: the concatenations accumulate in
// the output slab, each slot addressed as the block it ends up as, and
// an index slot's first send packs from the input, its last receive
// lands in the output. On a reused engine an execution performs no
// per-block or per-message allocations — except on the one-to-all
// primitives on the engine driver: a one-directional tree drains its senders' pools into its
// receivers', whose free lists are bounded, so senders allocate
// transport buffers anew (0.5-2.1 MB per call at n = 16, b = 64 KiB).
// The [][][]byte and [][]byte shapes exist only at the public boundary,
// as two adapters in the root package — one copy in, one copy out around
// the same plans.
//
// # The step program
//
// There is exactly one schedule representation and one walk of it
// (run.go, rounds.go): a rank steps through its role with one step loop
// (cursor.next), an embedded sub-program as a sub-frame, a skip as a
// round offset, and the round-major driver runs every rank's exchanges
// round by round — each rank posts its sends and lands its receives as
// soon as its senders have posted — split over min(GOMAXPROCS, n)
// workers, or one below walkParallelBytes copied per execution; the
// jobs of an ExecutePlans are dealt whole over the workers instead. The
// walk runs on one of two media: bytes, to execute a plan on a Memory,
// and labels (on one worker) to prove it (Plan.Check) and to read its
// figures, clocks and messages. The engine driver (frame.run) steps the
// same cursor on bytes on each rank's mpsim worker, one ExchangeOwned
// per exchange. Neither driver counts: the Result is a copy of the one
// program.finish derives (Plan.result). Plan.run and ExecutePlans pick
// the round-major driver for every plan on a plain engine — no chaos,
// no recording (mpsim.Engine.Plain) — and the engine driver for chaos
// and recording engines, so a plain engine never builds a transport.
// One grid of families, n and k holds every path to one reference: the
// walk at one to four workers (TestDriversAgree), the engine driver and
// one cell a family under chaos (TestMessagesMatchEvents) each land the
// operation's definition, and a recorded run sends exactly Plan.Messages.
//
// Deadlock freedom. The round-major driver is the walk Check proves:
// one round loop, one peer resolution, one set of k-port and delivery
// rules, faults reported in the round they happen in ("waits for rank
// ...", "does not receive it") — on bytes the first stops the run, on
// labels each is a violation. So a plan Check accepts matches every
// receive of every round to a send and every send to a receive, and
// every rank finishes every round. Split over workers the walk waits
// only at the round's barrier, which every worker reaches whatever its
// ranks did: a fault or panic is kept for it. Only the engine driver,
// whose ranks block on their transport, needs a watchdog, and only for
// a plan Check would reject (package mpsim argues why).
//
// Step semantics. A program is a list of steps per role:
//
//   - an exchange is one k-port round of transfers {to, from, send
//     extents, recv extents, copy | combine} under a phase tag. All
//     sends of the step read the state before it, then the engine round
//     runs, then received bytes land (or combine). A transfer with no
//     `to` or no `from` is one-sided.
//   - a local step moves extents to extents on the rank itself: a copy
//     or combine of byte streams, or a spread (block i to block i, cut
//     to the shorter: the pack and unpack of a padded layout plan).
//   - a skip sits out rounds; an embed runs a sub-program on a
//     sub-frame of the group (the hierarchical phases) and pads it to
//     the length of the phase it shares.
//
// Addressing modes. A peer or block address is rank-relative: me+c,
// me-c, me xor c (mod n), or absolute. An extent is a run of blocks of
// one region with a byte range inside each block; a region is the
// caller's input, the caller's output or a scratch region, shaped
// either as equal blocks of one stride or — for the caller regions of
// a layout plan — as one row of a ragged layout. Because addresses are
// relative, a translation-invariant family (Bruck, direct, xor,
// circulant, ring, recursive doubling, every flat reduction) is one
// role shared by all n ranks; only tree- and leader-structured
// schedules (folklore, the one-to-all primitives, hierarchical)
// materialise one role per rank.
//
// The tree. One function (builder.tree, tree.go) emits a rank's rounds
// of the (k+1)-nomial tree rooted at any group rank, in either
// direction. It has four users: the gather, scatter and broadcast
// compilers, and the folklore concatenation, a gather then a broadcast
// at root 0. Peers and blocks are addressed in group-rank order, so the
// root's side — a region only the root's frame has — is used in place
// and nothing is reordered; a non-root keeps its subtree's blocks in
// pooled scratch.
//
// Scratch and pool discipline, and the one path every payload takes
// (pack -> own -> land, or a swap), are run.go's header.
//
// Derived, not re-derived. program.finish counts rounds (C1), volume
// (C2), the messages and bytes a run sends and a hierarchical plan's
// phase table from the program, and the plan keeps
// them as the Result every execution copies; Plan.Listing prints the
// program as the text the golden corpus pins. Plan.Check runs the
// executing walk on labels and proves delivery for every family against
// Plan.goal, the one statement of what each operation computes, and the
// stored Result against the messages it walks. The same label walk draws
// the paper's figures (Plan.Snapshots), keeps per-rank virtual clocks
// (Plan.CriticalPath and CriticalPathTopo: each message priced on its
// link, the k ports in parallel) and lists the messages a run sends
// (Plan.Messages). The oracle (oracle.go: Alloc, Fill, Run, Verify —
// Exercise in a row) holds the bytes of a real run against the same
// definition, on memory of the plan's own shape; it is how every tool
// runs a collective, and a tool that only wants the measures reads
// Rounds and PredictedC2 instead. The closed forms of cost.go are held
// against the counter by one table test.
//
// Adding a family is one compiler function and one arm of
// Spec.canonicalize: build its steps with the builder, return the
// program from the operation's compile switch, say which Spec fields it
// reads, and caching, execution, Check, the listing, costs and `bruckctl
// vet` follow.
//
// # Pipelined (segmented) plans
//
// Spec.Segments pipelines the packed uniform Bruck schedules (the
// radix-r index and the ReduceBruck reduce-scatter phase): every block
// splits into S spans (buffers.SplitSpans) and span i streams through
// the rounds one merged round behind span i-1, so the schedule runs
// rounds + S - 1 merged rounds (costmodel.PipelinedC1), each moving a
// span-sized fraction of every message. S - 1 extra start-ups buy an
// up-to-S-fold cut in the bandwidth term — the paper's C1/C2 tension in
// miniature, a loss on small blocks and a win on large ones (`bruckctl
// run -crossover-segments` tabulates the crossover). The live spans
// share the k ports as lanes of one exchange, their slabs from the
// engine pool, so the segmented steady state allocates like the
// monolithic one.
//
// No compiler knows about segments: compile applies one pass,
// pipeline (passes.go), to the compiled program and scales the C2
// bound by the segment count. The rules:
//
//   - 0 or 1 is monolithic; compile resolves AutoSegments through the
//     cost model (OptimalSegments), once per compile, so a cache hit
//     stays free. Spec.canonicalize zeroes the count where it does not
//     apply — non-Bruck algorithms, unpacked tables, mixed radices,
//     V/layout plans, hierarchical and auto specs — and the pass clamps
//     it to the block size and the round count. The option is inert,
//     never an error, where it does not apply, so callers can set it
//     unconditionally.
//   - Segmentation never changes bytes, only the round structure and
//     the Report's (C1, C2) (SegmentedIndexCost is the closed form;
//     Plan.Check proves the spans tile each block).
//   - Segments is part of the plan cache key like every option a
//     schedule reads.
//
// # Asynchronous execution (the bruck.Machine front door)
//
// The root package's Machine.Start wraps these plans in a non-blocking
// submission: the plan resolves (or compiles) synchronously, the
// execution runs on a background goroutine, and the returned
// bruck.Handle is the only view of the running operation. Its rules —
// one operation in flight per Machine, which owns its buffers until
// Wait, execution errors surfacing on Wait — are documented on
// bruck.Handle; a submission before Wait is rejected at once.
//
// # Ragged layouts
//
// IndexV and ConcatV (vplan.go) generalize both operations to
// variable block sizes, the MPI_Alltoallv/MPI_Allgatherv shapes. A
// blocks.Layout carries the per-(src, dst) count and displacement
// tables; a Spec with Op OpIndexV or OpConcatV compiles it into the
// same Plan machinery. Schedules that forward blocks through
// intermediate processors (the Bruck family, the circulant
// concatenation) run unchanged on slots padded to the layout's largest
// block — two-phase local packing: pack at the source, fixed-size
// schedule on padded slots, unpack at true lengths (the layout is
// global knowledge, so every receiver knows every extent; padding
// travels but is never read). Schedules whose blocks travel directly
// (direct exchange, pairwise-XOR, ring) carry exact per-transfer
// extents with no padding. A uniform layout — including any all-equal
// count table, which construction normalizes — compiles to rounds
// byte-identical to the fixed-size plan's, so uniform V executions are
// byte- and Report-identical to the flat paths. Padding makes the
// log-round schedules pay C2 proportional to the largest block while
// the direct schedules pay many rounds but move only true bytes; which
// side wins depends on the layout's skew and the machine's beta/tau
// ratio, which is what an Auto layout spec decides per layout from the
// compiled candidates' exact (C1, C2).
//
// Plan lifecycle rules (held by TestPlanImmutableAfterCompile, the
// exact rejections of the root package's TestFacadeErrorTexts and
// TestKeyOfCoversEverySpecField; compiled programs are proved correct
// by Plan.Check, run via `bruckctl vet`):
//
//   - A Plan is immutable after compilation and bound to the engine
//     and group it was compiled for; executing it on another engine is
//     rejected.
//   - Layout plans additionally bind to their input layout. Layouts
//     are immutable, so a cached layout plan can never go stale.
//   - Layout plans run on Memory of buffers.Ragged slabs of the plan's
//     input layout and its output layout (the transpose for index,
//     Layout.ConcatOut for concat); handing them fixed-size Buffers —
//     or a fixed-size plan ragged slabs — is rejected. ExecutePlans
//     accepts any mix of fixed-size and layout plans on disjoint groups.
//   - A Plan holds no reference to any transport generation: each
//     execution runs through the engine's current transport and pools,
//     so plans remain valid across the engine's post-deadlock fencing
//     (the run that deadlocked fails; the plan's next execution simply
//     uses the fresh transport).
//   - Buffers are per-execution state, never plan state: every
//     execution names its Memory — Run takes one, ExecutePlans one per
//     Job — and a Plan has no field that could hold one, so a cached
//     plan shared by two callers runs each caller's own bytes.
//   - ExecutePlans runs several plans with pairwise disjoint groups,
//     returning each plan's Result: on a plain engine as one walk after
//     another under one claim of the engine, each on its own workers;
//     otherwise concurrently inside one engine run (one mpsim.Program
//     per plan). Plans of overlapping groups, memory
//     that does not fit its plan, and plans of a different engine are
//     rejected up front.
//   - Like the engine itself, plans and caches are not safe for
//     concurrent use from multiple goroutines; the concurrency model
//     is disjoint groups inside one run, not concurrent Runs:
//     every execution claims its engine — mpsim.Engine.RunPrograms on
//     the engine driver, mpsim.Engine.Inline round-major — and the
//     claim rejects a run that starts while another is in flight
//     (bruck.Machine decides it earlier, at submission).
//   - A plan keeps no execution state: both drivers keep theirs on the
//     engine — the round-major driver's frames, workers and free lists
//     through mpsim.Engine.Inline, the engine driver's pools and workers
//     in mpsim — so one cached plan serves every caller.
//
// # Reduction plans
//
// ReduceScatter and AllReduce (rplan.go) extend the machinery to the
// classic reduction composition allreduce = reduce-scatter + allgather.
// The reduce-scatter phase has the index operation's data movement plus
// an elementwise combine, and the allgather phase is the concatenation,
// so the reduction compiler appends the same Bruck round steps
// (ReduceBruck) and circulant round steps (the AllReduce second phase)
// the plain operations compile; the ring and recursive-halving schedules combine
// on receive. buffers.CombineFunc is the one new ingredient: a transfer
// or local step marked combine applies it where a plain one would copy.
//
// Reduction-plan lifecycle rules, in addition to the plan rules above:
//
//   - The kernel is part of the compiled plan: the cache key holds a
//     built-in kernel's (op, type) identity (ReduceOptions.KernelKey,
//     spelled by KernelOptions and nowhere else),
//     and specs with an anonymous user kernel are resolved fresh on
//     every Get and never cached — the cache cannot tell two functions
//     apart. Callers that reuse a user kernel should hold the Plan
//     themselves.
//   - Kernel-safety: a CombineFunc must treat dst and src as
//     non-overlapping equal-length slices, write only dst, and must not
//     retain either slice (src is pooled transport memory, recycled
//     immediately after the call). It is never invoked on an empty slab
//     — zero-length blocks travel as empty messages and skip the
//     combine, preserving the round structure and the pool's
//     zero-length fast path.
//   - Determinism: each compiled plan applies its combines in a fixed
//     order (the ring in ring order, halving along its binary tree, the
//     Bruck variant in descending source order at the destination), so
//     repeated executions of one plan are bit-identical, at any number
//     of workers. Different
//     algorithms associate differently; reductions must be associative
//     and commutative for the result to be schedule-independent, which
//     floating-point summation satisfies only up to the last ulp.
//   - Shapes: reduce plans take an index-shaped input (block (i, j) is
//     rank i's contribution to chunk j) and a concat-shaped
//     (reduce-scatter) or index-shaped (allreduce) output. Run and
//     ExecutePlans enforce this, and ExecutePlans runs reduction plans alongside
//     index, concat and layout plans on disjoint groups.
//
// # Hierarchical plans
//
// A Spec with Hierarchical set compiles (hier.go) the two-level
// schedule of its operation for a machine partitioned into node-groups
// (Spec.Topology): the
// paper's flat schedules run concurrently inside each group, one
// leader-level schedule crosses groups, and gather/scatter fan phases
// funnel remote data through the leaders. In program terms every rank
// gets its own role — a composition of embedded flat sub-programs and
// star phases of one-sided transfers, padded with skips so all ranks
// share one round counter. The result is one ordinary Plan —
// byte-identical output to the flat operation — whose round structure
// is a strictly ordered sequence of phases, each moving data over
// exactly one link class. That single-class-per-phase discipline
// is the load-bearing invariant: it makes the per-class (C1, C2) split
// an exact compile-time fact (Result.Intra/Result.Inter, each carrying
// its own lower bounds), lets Plan.TimeTopo price each phase at its
// class profile, and gives the listing a phase table that Plan.Check
// proves against the program (phases tile the rounds, per-phase C2
// sums the rounds' maxima, intra phases never cross groups, inter
// phases never stay inside one).
//
// Hierarchical-plan lifecycle rules, in addition to the plan rules
// above:
//
//   - The topology is part of the compiled plan: it must cover exactly
//     the group (Topology.N() == group size), groups occupy contiguous
//     runs of group ranks, and each group's first rank is its leader.
//     Treat a Topology as immutable once a plan is compiled from it —
//     the plan holds it by reference, like plans hold their layouts.
//   - Topology names do not participate in the cache key: differently
//     named but parameter-identical topologies share cache entries.
//   - The flat-vs-hierarchical auto dispatch (an Auto spec under a
//     nontrivial topology; bruck.WithAuto on a topology machine) prices
//     flat candidates at Topology.FlatTime — every round pays the
//     slowest class — and hierarchical candidates phase by phase. The
//     pricing uses the topology's per-class profiles exclusively; the
//     single profile the caller hands WithAuto carries no per-link
//     information and is canonicalized away. Trivial topologies (one
//     group, or all singleton groups) dispatch as a flat machine.
//   - Reductions are allreduce only: the composition reduces each
//     group onto its leader, reduces across leaders, and broadcasts
//     back out, yielding the full vector everywhere. A hierarchical
//     reduce-scatter would need a different redistribution phase, so
//     the spec is rejected — cached allreduce or not. The fixed
//     fold order matches the flat schedules byte-for-byte only for
//     exact commutative kernels (the integer kernels); floating-point
//     kernels may round differently.
//   - Segments has no hierarchical axis: HierOptions carries the
//     per-level radices only, and the pipelining option does not apply
//     to two-level schedules.
//   - Execution follows the ordinary plan rules (engine affinity,
//     explicit buffers, fencing survival). The compilers do not
//     require it, but an engine created with mpsim.WithTopology (the
//     group-assignment form bruck.WithTopology arranges) tags every
//     recorded event with its link class, so a recorded run's per-class
//     split can be checked against the compiled phase table.
//
// The closed-form complexity functions in cost.go predict C1 and C2 for
// every algorithm; the tests assert that the compiled programs match
// the closed forms exactly, that Check proves every program's counts,
// and that both respect the lower bounds of package lowerbound.
package collective
