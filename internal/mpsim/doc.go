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
// belongs to communication round i. The engine enforces the k-port constraint per round, checks
// that matching sends and receives agree on the round number (when
// validation is enabled), and records the two complexity measures used
// throughout the paper:
//
//   - C1, the number of communication rounds, and
//   - C2, the sum over rounds of the largest message (over all ports of
//     all processors) sent in that round.
//
// Estimated communication time in the paper's linear model is
// T = C1*beta + C2*tau; package costmodel evaluates recorded Metrics
// under machine profiles.
//
// # Transports
//
// Message delivery is pluggable behind the Transport interface, chosen
// with WithTransport. Exactly one goroutine sends on a given (src, dst)
// pair and exactly one receives on it, so a backend only needs
// single-writer single-reader ordering per ordered pair. Two backends
// ship:
//
//   - BackendChan (default): one buffered Go channel per ordered pair.
//     Blocked processors park in the runtime for free; best for
//     debugging schedules and for machines much wider than the host.
//   - BackendSlot: one lock-free single-writer slot ring per ordered
//     pair, synchronized with two atomic counters; waiting escalates
//     spin -> yield -> sleep. The fast backend for throughput work.
//   - BackendChaos: the adversarial-timing wrapper around chan or slot
//     (WithChaos selects and configures it). It injects seeded
//     per-link latency jitter, cross-link reordering of same-round
//     messages, and straggler processors — perturbing only *when*
//     messages move, never what moves — so tests can prove schedules
//     byte-correct under arbitrary timing.
//
// Both real backends give a pair two messages of slack — exactly what a round-aligned
// schedule needs, since a sender runs at most one round ahead of the
// matching receiver per pair — so schedule bugs surface as deadlocks
// rather than hide in deep buffers. The paper's schedules are
// transport-agnostic: every backend produces byte-identical results on
// identical schedules.
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
// must be pairwise disjoint, unclaimed ranks' workers stay parked, and
// every program records into its own Metrics (returned in program
// order). The k-port constraint remains per processor; the
// round-uniformity check applies per program, so programs with
// different round counts can share a run as long as no message crosses
// a program boundary (a crossing surfaces as a round-alignment or
// misaligned-schedule error under validation). Run is the
// single-program special case. Package collective builds concurrent
// disjoint-group collectives (ExecutePlans / bruck.Machine.RunPlans)
// on this primitive.
//
// # Run lifecycle
//
// A run hands each claimed rank's worker its Proc, reset from the
// engine's one reusable run descriptor, and waits for the last body to
// return. Each Proc records its sends into a metrics shard of its own,
// without a lock; when every body has returned, the shards of each
// program merge into that program's Metrics, which nothing writes again.
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
// # Chaos lifecycle rules
//
// The chaos transport follows the same lifecycle contract as the real
// backends, with three additional rules:
//
//   - Determinism: the delay of the i-th message on each directed link
//     is a pure function of (seed, link, i) — there is no shared
//     generator — so two runs of one schedule with one seed inject
//     identical delays and report identical ChaosStats, regardless of
//     goroutine interleaving. Results are always byte-identical to the
//     wrapped backend's; only Time-like quantities may change.
//   - Ordering: per-pair FIFO delivery is preserved (receivers match
//     messages to rounds, so reordering within a pair would be a real
//     schedule violation, not chaos). Reordering happens across links,
//     by delaying each link independently.
//   - Abandonment: Abandon interrupts injected delays in flight as
//     well as inner-transport waits, so a watchdog fence wakes
//     processors asleep in a pause exactly like ones blocked in a
//     mailbox. Drain delegates to the inner transport — the wrapper
//     itself never holds a message — and a failed or fenced run
//     installs a fresh wrapper, resetting ChaosStats.
package mpsim
