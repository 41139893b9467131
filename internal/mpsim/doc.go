// Package mpsim simulates a multiport fully connected message-passing
// system, the machine model of Bruck, Ho, Kipnis, Upfal and Weathersby,
// "Efficient Algorithms for All-to-All Communications in Multiport
// Message-Passing Systems" (SPAA 1994; IEEE TPDS 8(11), 1997).
//
// The model consists of n processors p0 .. p(n-1). Every processor can
// communicate directly with every other processor, and every pair of
// processors is equally distant. Each processor has k >= 1 ports: in one
// communication round it may send up to k distinct messages to k
// processors and simultaneously receive up to k messages from k other
// processors.
//
// The simulator runs each processor on a worker goroutine of its own,
// started on the first run that claims the rank and parked between runs.
// Algorithms are written in SPMD style: Engine.Run invokes the same body
// on every Proc, and the i-th communication call issued by a processor
// belongs to communication round i. The engine enforces the k-port
// constraint per round and checks that matching sends and receives
// agree on the round number, always: there is no switch to turn the
// rules off. It counts
// nothing: the paper's two complexity measures — C1, the number of
// communication rounds, and C2, the sum over rounds of the largest
// message — are properties of the schedule, which package collective
// derives when it compiles a plan. Under Record the engine logs every
// message as an Event, so a live run can be held to the schedule it
// was meant to run.
//
// # Transports
//
// A plain engine (Engine.Plain: no chaos, no Record) moves no message
// through a transport: package collective runs every plan on it as the
// round-major walk (Inline). The engine's own driver reaches a
// transport only under chaos or Record, and builds it on the first run
// that needs one: the channel transport (BackendChan), one buffered Go
// channel per ordered pair, on which blocked processors park in the
// runtime for free. Exactly one goroutine sends on a given (src, dst)
// pair and exactly one receives on it, so a transport only needs
// single-writer single-reader ordering per ordered pair.
//
// Chaos, the one transport option (WithChaos), is a seeded delay on
// that transport. Every Send and Recv first pauses for a delay that is
// a pure function of (seed, side, link, message index) — uniform below
// ChaosConfig.MaxDelay, StragglerFactor times longer on a straggler's
// side — so two runs of one schedule with one seed pause alike,
// whatever the goroutines' interleaving. A link side draws its delays
// in message order and pauses before its mailbox operation, so per-pair
// FIFO holds; only the interleaving across links changes. A pause wakes
// on Abandon like a mailbox wait, and the fresh transport a failed or
// fenced run leaves behind counts its messages afresh.
//
// The slot transport (BackendSlot, slot.go: a lock-free slot ring per
// pair) and WithTransport stay only for the benchmark's
// mpsim.msg_*.slot probes.
//
// A pair has two messages of slack — exactly what a round-aligned
// schedule needs, since a sender runs at most one round ahead of the
// matching receiver per pair — so schedule bugs surface as deadlocks
// rather than hide in deep buffers.
//
// # Buffer ownership
//
// Message payloads travel in buffers drawn from processor-local free
// lists that persist across runs. The collective interpreter uses
// Proc.ExchangeOwned only: a sender packs its payload into a buffer
// from its pool and the buffer itself travels; the receiver lands its
// bytes and recycles it into its own pool (safe because the
// transport's delivery orders the reuse after the sender's last
// write). Proc.ExchangeInto, for hand-written bodies, copies each send
// into a pooled buffer and each receive out of one; Exchange hands what
// it receives to the caller. Either way a reused Engine reaches a steady
// state with no per-message allocations; Proc.AcquireBuf scans a few
// free-list entries so mixed-size rounds do too. Proc.AcquireBuf
// and Proc.ReleaseBuf expose the same pools to algorithm bodies for
// round scratch space. Each pool is owned by one processor's worker;
// the engine goroutine touches pools only between runs. One release
// per acquire, no use after release, no escape: the collective
// interpreter, the one caller outside this package, is held to it by
// TestBudget's exact allocation counts, its oracle and the race job.
//
// # Partitioned runs
//
// Engine.RunPrograms executes several independent SPMD programs in one
// run: each Program names its member ranks and its body, member sets
// must be pairwise disjoint, and unclaimed ranks' workers stay parked.
// The k-port constraint remains per processor; the
// round-uniformity check applies per program, so programs with
// different round counts can share a run as long as no message crosses
// a program boundary (a crossing surfaces as a round-alignment or
// misaligned-schedule error). Run is the
// single-program special case. Package collective builds concurrent
// disjoint-group collectives (ExecutePlans / bruck.Machine.RunPlans)
// on this primitive for chaos and recording engines.
//
// # Run lifecycle
//
// A run hands each claimed rank's worker its Proc, reset from the
// engine's one reusable run descriptor, and waits for the last body to
// return. Engine.Inline is the other way to hold the engine: its
// function runs on the caller's goroutine under the same in-flight
// claim, touching no transport, pool or worker — package collective
// runs every plan of a plain engine round-major through it — and may
// spread its work over the engine's Team: helper goroutines, started
// by the first Run that asks for them, that poll for the next Run a
// while and then park like the rank workers, and stop with them. A
// transport is built only by the first run that needs one. Each Proc
// counts its sends and receives, and under Record logs its sends, on
// its own, without a lock; when every body has returned, the engine
// compares the counts (see below) and gathers the logs into the run's
// Metrics, which nothing writes again.
//
// Every Run gets a generation number, stamped on each Proc and each
// message; receivers reject messages from another generation. A run
// whose processors all returned may leave undelivered messages in the
// transport — it sent more than it received — and the next Run drains
// them first, recycling their payload buffers into the destination
// pools. A run that left none skips the drain.
//
// A processor that returns an error or panics abandons the run's
// transport at once: peers blocked on a message it will never send wake
// with an error and exit, so the run ends in the time the failure took,
// not at the watchdog. The run returns the errors of the processors
// that failed by themselves — what the woken peers report is dropped —
// and the next Run proceeds on a fresh transport with the same workers
// and pools (every body has returned). One program's failure ends every
// program of a RunPrograms call: they share the transport.
//
// A run that the watchdog declares deadlocked still has processors
// blocked in sends or receives, so the engine fences it: the transport
// is abandoned the same way, so the zombies exit rather than leak, and
// the next Run proceeds on a fresh transport, fresh pools, fresh workers
// and a fresh run descriptor. Zombies keep references only to the
// orphaned instances, so they can neither race with later runs nor leak
// stale messages into them, at the cost of losing the pools' warm steady
// state on that (already exceptional) path; each fenced worker exits
// when its body returns. The workers outlive runs but not the Engine:
// once its handle is unreachable, a finalizer stops them.
//
// # Why timing cannot change the bytes
//
// On the engine driver a compiled program is a Kahn process network
// (G. Kahn, "The semantics of a simple language for parallel
// programming", IFIP 1974): each rank is a sequential process, and the
// processes talk only over FIFO channels with one writer and one
// reader each. As long as every receive blocks on a channel its process
// names, such a network computes the same channel histories, and so the
// same outputs, under every interleaving of its processes. Four
// premises carry that over to the engine, each pinned by a test:
//
//  1. Named sources. Every receive names its source:
//     Transport.Recv(dst, src), and Proc's receiving methods take their
//     sources (Proc.exchange's from list). There is no probe and no
//     any-source receive (TestReceivesNameTheirSource pins both method
//     sets).
//  2. Per-pair FIFO. A pair's messages arrive in the order they were
//     sent; a receive handed another round's message fails as a
//     misaligned schedule (TestRoundMisalignmentDetected), and under
//     chaos a link side draws its delays in message order
//     (TestChaosDelaysInMessageOrder).
//  3. Every receive is fed. Plan.Check, which walks a program's rounds
//     as the round-major driver does, proves that every receive of
//     round t is fed by a send of round t, that every send is received
//     and that all ranks end aligned (TestCheckPerturbations'
//     re-pointed receive rows, and its row where a gather rank posts a
//     round early). Every compiled family is Check-clean
//     (TestCheckCleanPlans, FuzzCase).
//  4. Depth 2 suffices. A round-aligned sender runs at most one round
//     ahead of the matching receiver on a pair, so mailboxDepth = 2
//     never blocks a send its run needs; every golden case completes
//     under chaos with a straggler (TestGoldenTraces).
//
// By 1 and 2 what a receive returns depends on the sends alone, not on
// when they happen; by 3 each receive is fed by the send the round-major
// walk pairs it with; by 4 no send waits on a receive that waits on it.
// So a Check-clean plan cannot deadlock on the engine, and no delay can
// change its bytes from the walk's. Chaos therefore tests the engine —
// pools, abandon and fencing under timing a plain run never sees — not
// the schedules: the lifecycle tests of this package run under it, and
// package collective's grid runs one cell per family under it.
package mpsim
