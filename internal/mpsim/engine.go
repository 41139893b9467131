package mpsim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Default engine parameters.
const (
	// DefaultPorts is the number of ports k when none is specified
	// (the one-port model, the common case in practice per the paper).
	DefaultPorts = 1

	// DefaultWatchdog is the time the engine waits for all processors to
	// finish before declaring the run deadlocked.
	DefaultWatchdog = 30 * time.Second
)

// Engine simulates an n-processor fully connected multiport
// message-passing system. Create one with New, then execute SPMD
// programs with Run. An Engine may be reused for several consecutive
// runs — including after a failed or deadlocked run, see Run — but not
// for concurrent ones: a run started while another is in flight is
// rejected.
//
// Engine is a handle on the engine's state. Each rank's body runs on a
// parked worker goroutine that outlives the run; nothing a worker or a
// Proc reaches points back to the handle, so once the caller drops it a
// finalizer stops the workers.
type Engine struct{ *engine }

type engine struct {
	n        int
	k        int
	record   bool
	watchdog time.Duration
	backend  Backend
	chaos    ChaosConfig // read only when backend == BackendChaos

	// groupOf[rank] is the node-group of each processor under the
	// engine's two-level topology (WithTopology), nil on flat engines.
	// The engine uses it only to tag each recorded send with its link
	// class (ClassIntra/ClassInter); schedules and transports are
	// unaffected — topology is a pricing dimension, not a connectivity
	// restriction.
	groupOf []int

	// tr carries messages between processors. A failed run abandons the
	// instance, to wake its blocked goroutines, and the engine installs a
	// fresh one. A chan or slot transport is built by the first run: an
	// engine whose schedules all run Inline never pays for its n*n pairs.
	tr Transport

	// residue is set when the last run left messages in tr (it sent more
	// than it received): the next run drains them into the pools first.
	residue bool

	// pools[rank] is the rank-local free list of payload buffers. Each
	// pool is touched only by rank's worker while a run is in flight and
	// by the engine goroutine between runs, so no lock is needed. Senders
	// draw payload buffers from their own pool; receivers return consumed
	// payloads to theirs. The pools persist across runs — they are
	// replaced, like the transport, only when a deadlocked run may still
	// be touching them — so a reused Engine reaches a steady state with no
	// per-message allocations.
	pools []*bufPool

	// workers[rank] is the job channel of rank's parked worker, nil until
	// a run claims the rank. A fence closes them all: each fenced worker
	// exits when its body returns, and later runs start fresh ones.
	workers []chan *Proc

	// cur is the reusable run descriptor. A fence replaces it, so zombies
	// of the fenced run finish on their own orphaned copy.
	cur *run

	// timer is the watchdog, created on the first run and reset by each.
	timer *time.Timer

	// gen counts Runs. Every Proc and every message carries the
	// generation of the Run that created it, and receivers reject
	// messages from another generation: together with the post-deadlock
	// replacement of transport and pools this fences zombie goroutines
	// of an abandoned run out of all later runs.
	gen uint64

	// inline is what Inline's callers keep on the engine between calls.
	inline any

	// team is the helpers an Inline function may spread its work over.
	team Team

	// running is set for the length of a run, which owns everything above.
	running atomic.Bool

	// metrics is the event log of the last run, nil unless it recorded.
	metrics *Metrics
}

// run is the state of one engine run, reused by the next unless a fence
// orphans it.
type run struct {
	procs []Proc  // procs[rank]; a rank no program claims has prog -1
	errs  []error // errs[rank] is the error rank's body returned
	// live counts the bodies not yet returned; the worker that brings it
	// to zero signals done.
	live atomic.Int64
	done chan struct{}
}

func newRun(e *engine) *run {
	r := &run{procs: make([]Proc, e.n), errs: make([]error, e.n), done: make(chan struct{}, 1)}
	for i := range r.procs {
		p := &r.procs[i]
		p.engine, p.run, p.rank = e, r, i
	}
	return r
}

// message is one payload in flight from src to dst: the communication
// round it belongs to, the run generation that produced it, and the
// pooled payload buffer.
type message struct {
	round int
	gen   uint64
	data  []byte
}

// Option configures an Engine.
type Option func(*Engine)

// Ports sets the number of communication ports k per processor
// (1 <= k <= n-1). In every round each processor may send up to k
// messages and receive up to k messages.
func Ports(k int) Option {
	return func(e *Engine) { e.k = k }
}

// Watchdog sets how long Run waits for completion before reporting a
// deadlock. Zero or negative disables the watchdog.
func Watchdog(d time.Duration) Option {
	return func(e *Engine) { e.watchdog = d }
}

// WithTransport selects the message transport backend. It stays only
// because the benchmark's mpsim.msg_*.slot probes select BackendSlot
// with it: a plain engine builds no transport, and WithChaos is the one
// transport option, so no other caller passes it. It goes with those
// probes.
func WithTransport(b Backend) Option {
	return func(e *Engine) { e.backend = b }
}

// WithChaos selects the chaos transport with the given configuration:
// the engine wraps the channel transport and injects seeded latency
// jitter and straggler delays on every link. See ChaosConfig.
func WithChaos(cfg ChaosConfig) Option {
	return func(e *Engine) {
		e.backend = BackendChaos
		e.chaos = cfg
	}
}

// WithTopology installs a two-level topology on the engine: groupOf
// maps each rank to its node-group, and every recorded send is tagged
// with the link class of its (src, dst) pair — ClassIntra when both
// ends share a group, ClassInter otherwise — in Event.Class;
// connectivity and scheduling are unaffected. groupOf is copied;
// it must cover exactly n ranks with non-negative group numbers. A nil
// or empty groupOf leaves the engine flat.
func WithTopology(groupOf []int) Option {
	return func(e *Engine) {
		if len(groupOf) == 0 {
			e.groupOf = nil
			return
		}
		e.groupOf = append([]int(nil), groupOf...)
	}
}

// GroupAssignment returns a copy of the rank-to-group table installed
// by WithTopology, or nil on flat engines.
func (e *Engine) GroupAssignment() []int {
	if e.groupOf == nil {
		return nil
	}
	return append([]int(nil), e.groupOf...)
}

// New creates an engine for n processors. n must be at least 1 and the
// port count k must satisfy 1 <= k <= max(1, n-1).
func New(n int, opts ...Option) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpsim: processor count n = %d, want n >= 1", n)
	}
	e := &Engine{&engine{
		n:        n,
		k:        DefaultPorts,
		watchdog: DefaultWatchdog,
		backend:  BackendChan,
	}}
	for _, opt := range opts {
		opt(e)
	}
	maxK := n - 1
	if maxK < 1 {
		maxK = 1
	}
	if e.k < 1 || e.k > maxK {
		return nil, fmt.Errorf("mpsim: port count k = %d, want 1 <= k <= %d for n = %d", e.k, maxK, n)
	}
	if e.groupOf != nil {
		if len(e.groupOf) != n {
			return nil, fmt.Errorf("mpsim: topology covers %d ranks, engine has %d", len(e.groupOf), n)
		}
		for r, g := range e.groupOf {
			if g < 0 {
				return nil, fmt.Errorf("mpsim: rank %d assigned negative group %d", r, g)
			}
		}
	}
	if e.backend != BackendChan && e.backend != BackendSlot {
		tr, err := newTransport(e.backend, n, e.chaos)
		if err != nil {
			return nil, err
		}
		e.tr = tr
	}
	e.pools = newPools(n)
	e.workers = make([]chan *Proc, n)
	e.cur = newRun(e.engine)
	runtime.SetFinalizer(e, func(e *Engine) { e.stop() })
	return e, nil
}

// MustNew is New but panics on error; for tests and examples with known
// good parameters.
func MustNew(n int, opts ...Option) *Engine {
	e, err := New(n, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// N returns the number of processors.
func (e *Engine) N() int { return e.n }

// Ports returns the port count k.
func (e *Engine) Ports() int { return e.k }

// Plain reports whether the engine's runs are plain ones: a chan or slot
// transport and no event recording, so nothing about a run is observable
// beyond its outcome.
func (e *Engine) Plain() bool {
	return (e.backend == BackendChan || e.backend == BackendSlot) && !e.record
}

// errOverlap rejects a run, or an Inline call, made while another is in
// flight.
var errOverlap = errors.New("mpsim: a run is already in flight on this engine (runs must not overlap)")

// Inline runs fn on the caller's goroutine in place of a run: it holds
// the engine's run claim while fn runs, so a call made during a run is
// rejected exactly as an overlapping run is, and a run or Inline call
// made during fn is too. fn touches no transport, pool or worker of the
// engine and records no event: Metrics reports nil afterwards; it may
// spread its work over the engine's helpers with team.
// state points at a value the engine keeps for its Inline callers from
// one call to the next, as it keeps its pools from run to run; the claim
// orders the calls, so it needs no lock. Like the pools, it must not
// reach the Engine handle between calls.
func (e *Engine) Inline(fn func(state *any, team *Team) error) error {
	if !e.running.CompareAndSwap(false, true) {
		return errOverlap
	}
	defer e.running.Store(false)
	e.metrics = nil
	return fn(&e.inline, &e.team)
}

// A Team is the goroutines an Inline function may spread its work over:
// its own and the engine's helpers, which poll a while after a call and
// then park like the rank workers of a run, and stop with them. Only the
// function Inline hands it to may use it, and only while that call
// lasts.
type Team struct {
	body    func(worker int)
	jobs    chan int // the worker a helper runs next
	helpers int
	raised  []any // raised[i]: what worker i's body panicked with

	// The barrier of the Run in progress (Wait) among its w workers.
	w        int32
	arrived  atomic.Int32
	gen      atomic.Uint32
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     sync.Cond
}

// helperSpins is how often an idle helper polls for the next Run before
// it parks, and waitSpins how often a worker polls the barrier before it
// sleeps: some tens of microseconds each.
const (
	helperSpins = 1 << 12
	waitSpins   = 1 << 16
)

// teamJobs is the room jobs has: a Run on up to 65 workers hands its
// helpers their jobs without waiting for one to take its own.
const teamJobs = 64

// Run calls body(0) on the caller's goroutine and body(1), ...,
// body(w-1), w >= 1, on helpers, starting those it does not have yet, and
// returns once every call has returned; a helper's panic is raised again
// on the caller. The calls run concurrently: what they share they must
// synchronize themselves.
func (t *Team) Run(w int, body func(worker int)) {
	if t.jobs == nil {
		t.jobs = make(chan int, teamJobs)
	}
	for ; t.helpers < w-1; t.helpers++ {
		go t.help(t.jobs)
	}
	if len(t.raised) < w {
		t.raised = make([]any, w)
	}
	if t.cond.L == nil {
		t.cond.L = &t.mu
	}
	t.body, t.w = body, int32(w)
	for i := 1; i < w; i++ {
		t.jobs <- i
	}
	defer t.join(w)
	body(0)
}

// Wait is the barrier of a Run: it holds the calling worker until all w
// workers have called it, then lets the last to arrive call last alone
// before it releases the others. A worker spins first — a worker has a
// core of its own, and the stretches between barriers end close
// together — then sleeps.
func (t *Team) Wait(last func()) {
	g, w := t.gen.Load(), t.w // once it arrives, the next Run may set t.w
	if t.arrived.Add(1) == w {
		t.arrived.Store(0)
		last()
		t.gen.Add(1)
		if t.sleepers.Load() > 0 {
			t.mu.Lock()
			t.cond.Broadcast()
			t.mu.Unlock()
		}
		return
	}
	for i := 0; i < waitSpins; i++ {
		if t.gen.Load() != g {
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
	t.mu.Lock()
	t.sleepers.Add(1)
	for t.gen.Load() == g {
		t.cond.Wait()
	}
	t.sleepers.Add(-1)
	t.mu.Unlock()
}

// join is a Run's last barrier, which each worker reaches once its body
// has returned. Past it the caller drops the body — it may reach the
// Engine handle — and raises the first helper panic again.
func (t *Team) join(w int) {
	t.Wait(func() {})
	t.body = nil
	var first any
	for i, v := range t.raised[1:w] {
		t.raised[i+1] = nil
		if first == nil {
			first = v
		}
	}
	if first != nil {
		panic(first)
	}
}

// help is a helper: it runs the body of each worker it is handed, then
// polls jobs a while — a Run that follows at once then reaches it
// without a scheduler round trip — and parks on it, until the engine
// closes it. It reaches the engine only through the Team, never the
// Engine handle.
func (t *Team) help(jobs <-chan int) {
	for {
		i, ok := -1, true
		for spin := 0; i < 0 && ok && spin < helperSpins; spin++ {
			select {
			case i, ok = <-jobs:
			default:
			}
		}
		if i < 0 && ok {
			i, ok = <-jobs
		}
		if !ok {
			return
		}
		t.do(i)
	}
}

// do runs the body of worker i, keeps its panic for join and joins.
func (t *Team) do(i int) {
	defer func() {
		t.raised[i] = recover()
		t.Wait(func() {})
	}()
	t.body(i)
}

// ChaosStats returns the chaos transport's cumulative injected-delay
// statistics and true, or a zero value and false when the engine does
// not use the chaos backend. Only call between runs; a failed or
// deadlocked run installs a fresh transport and resets the stats.
func (e *Engine) ChaosStats() (ChaosStats, bool) {
	if ct, ok := e.tr.(*chaosTransport); ok {
		return ct.Stats(), true
	}
	return ChaosStats{}, false
}

// Run executes body concurrently on all n processors and waits for every
// processor to return. It returns the joined errors of all processors,
// or a deadlock error naming the stuck processors if the watchdog fires.
// Under Record, the run's events are available from Metrics afterwards.
//
// An Engine remains usable after any failed run: a processor's error or
// panic ends the run at once, without its peers' consequent errors, and
// a deadlocked run is fenced; either way the next run proceeds on a
// fresh transport (see "Run lifecycle" in the package documentation).
func (e *Engine) Run(body func(p *Proc) error) error {
	return e.RunPrograms([]Program{{Body: body}})
}

// Program is one SPMD body of a partitioned run together with the
// engine ranks that execute it. Members nil means every rank (only
// allowed when it is the sole program of the run); otherwise the member
// sets of all programs of one RunPrograms call must be disjoint.
type Program struct {
	// Members lists the engine ranks that run Body, nil for all.
	Members []int
	// Body is the per-processor program, as in Run.
	Body func(p *Proc) error
}

// RunPrograms executes several independent SPMD programs concurrently
// inside one engine run: each program's body runs on its member ranks,
// and ranks claimed by no program sit the run out entirely. The
// k-port constraint is still enforced per processor, and under
// validation the round-uniformity check applies per program, so
// programs of different round counts may share a run as long as they
// never exchange messages across program boundaries (a cross-program
// message is caught by the round-alignment check as a misaligned
// schedule).
//
// A single program with nil Members is exactly Run. Under Record,
// Metrics afterwards holds the events of every program of the run.
// Error and deadlock recovery behave as in Run: the whole run shares
// one transport and one watchdog, so a failure or a deadlock anywhere
// ends every program of the run. A call made while another run is in
// flight is rejected without touching it.
func (e *Engine) RunPrograms(progs []Program) error {
	if len(progs) == 0 {
		return fmt.Errorf("mpsim: RunPrograms with no programs")
	}
	if !e.running.CompareAndSwap(false, true) {
		return errOverlap
	}
	defer e.running.Store(false)
	r := e.cur
	for i := range r.procs {
		r.procs[i].prog = -1
	}
	spawn := 0
	for pi := range progs {
		if progs[pi].Body == nil {
			return fmt.Errorf("mpsim: program %d has no body", pi)
		}
		if progs[pi].Members == nil {
			if len(progs) > 1 {
				return fmt.Errorf("mpsim: program %d claims all ranks (nil Members) in a %d-program run", pi, len(progs))
			}
			for i := range r.procs {
				r.procs[i].prog = pi
			}
			spawn = e.n
			continue
		}
		if len(progs[pi].Members) == 0 {
			return fmt.Errorf("mpsim: program %d has no members", pi)
		}
		for _, rank := range progs[pi].Members {
			if rank < 0 || rank >= e.n {
				return fmt.Errorf("mpsim: program %d member %d out of range [0,%d)", pi, rank, e.n)
			}
			if prev := r.procs[rank].prog; prev != -1 {
				return fmt.Errorf("mpsim: rank %d belongs to programs %d and %d; programs must be disjoint", rank, prev, pi)
			}
			r.procs[rank].prog = pi
			spawn++
		}
	}

	if e.tr == nil {
		e.tr = e.newTransport()
	}
	if e.residue {
		e.tr.Drain(func(dst int, data []byte) { e.pools[dst].put(data) })
	}
	e.gen++
	r.live.Store(int64(spawn))
	for i := range r.procs {
		p := &r.procs[i]
		if p.prog == -1 {
			continue
		}
		p.tr, p.pool, p.gen, p.body = e.tr, e.pools[i], e.gen, progs[p.prog].Body
		p.round.Store(0)
		p.done.Store(false)
		p.sent, p.recvs, p.events = 0, 0, p.events[:0]
		if e.workers[i] == nil {
			e.workers[i] = make(chan *Proc, 1)
			go work(e.workers[i])
		}
		e.workers[i] <- p
	}

	if e.watchdog > 0 {
		if e.timer == nil {
			e.timer = time.NewTimer(e.watchdog)
		} else {
			e.timer.Reset(e.watchdog)
		}
		select {
		case <-r.done:
			// go.mod's 1.22 timer semantics: a timer that fired as the run
			// ended has a value waiting, which the next run must not see.
			if !e.timer.Stop() {
				<-e.timer.C
			}
		case <-e.timer.C:
			err := e.deadlockError(r)
			e.fence()
			return err
		}
	} else {
		<-r.done
	}

	e.collect(r)
	if errors.Join(r.errs...) != nil {
		// The failing ranks abandoned the transport; every worker has
		// returned, so the workers and pools stay. What woken peers report
		// is not a cause, and one remains: the first rank to abandon had
		// its own.
		e.tr = e.newTransport()
		for i, err := range r.errs {
			if errors.Is(err, errAbandoned) {
				r.errs[i] = nil
			}
		}
		err := errors.Join(r.errs...)
		clear(r.errs)
		return err
	}
	for pi := range progs {
		if err := r.uniformityError(pi); err != nil {
			if len(progs) > 1 {
				return fmt.Errorf("mpsim: program %d: %w", pi, err)
			}
			return err
		}
	}
	return nil
}

// work is a rank's worker: it runs each Proc it is handed, then parks
// on jobs again until the engine closes it. It reaches the engine only
// through the Procs, never the Engine handle, so a parked worker does
// not keep an unreachable Engine from its finalizer.
func work(jobs <-chan *Proc) {
	for p := range jobs {
		p.exec()
	}
}

// exec runs p's body for its run. A panic becomes the rank's error, and
// an error abandons the transport at once: peers waiting on this rank
// would otherwise sit until the watchdog. The last body to return
// signals the run done.
func (p *Proc) exec() {
	r := p.run
	defer func() {
		if v := recover(); v != nil {
			r.errs[p.rank] = fmt.Errorf("mpsim: processor %d panicked: %v", p.rank, v)
		}
		if r.errs[p.rank] != nil {
			p.tr.Abandon()
		}
		// The body may reach the Engine handle (a plan does): holding it
		// past the run would keep the handle from its finalizer.
		p.body = nil
		p.done.Store(true)
		if r.live.Add(-1) == 0 {
			r.done <- struct{}{}
		}
	}()
	r.errs[p.rank] = p.body(p)
}

// collect notes whether a run whose bodies have all returned left
// messages in the transport and, under Record, gathers its events.
func (e *Engine) collect(r *run) {
	var sent, received int64
	e.metrics = nil
	if e.record {
		e.metrics = new(Metrics)
	}
	for i := range r.procs {
		p := &r.procs[i]
		if p.prog == -1 {
			continue
		}
		sent, received = sent+p.sent, received+p.recvs
		if e.metrics != nil {
			e.metrics.events = append(e.metrics.events, p.events...)
		}
	}
	e.residue = sent != received
}

// uniformityError reports an error if the participating processors of
// one program finished on different round counters, which indicates a
// misaligned SPMD schedule (a missing Skip). Processors that never
// advanced their round counter did not take part in the operation (for
// example processors outside the Group of a collective) and are exempt.
func (r *run) uniformityError(prog int) error {
	first, firstRank := -1, -1
	for i := range r.procs {
		p := &r.procs[i]
		round := p.Round()
		if p.prog != prog || round == 0 {
			continue
		}
		if first == -1 {
			first, firstRank = round, p.rank
			continue
		}
		if round != first {
			return fmt.Errorf("mpsim: misaligned schedule: p%d finished at round %d but p%d finished at round %d",
				firstRank, first, p.rank, round)
		}
	}
	return nil
}

// Metrics returns the event log of the most recent run, or nil unless
// the engine records (Record), or if no run has returned, the most
// recent one deadlocked or an Inline call came after it.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// fence isolates the engine from the goroutines of a deadlocked run.
// Abandoning the transport wakes every processor blocked in a send or
// receive with an error so it can exit; replacing the transport, the
// buffer pools, the workers and the run descriptor guarantees that even a
// processor that ignores the error (or is still executing body code) only
// ever touches structures no future run shares. The zombies' Procs keep
// their references to the orphaned instances, so no lock is needed
// anywhere on this path.
func (e *Engine) fence() {
	e.tr.Abandon()
	e.tr = e.newTransport()
	e.pools = newPools(e.n)
	e.stop()
	e.cur = newRun(e.engine)
	e.metrics = nil
}

// stop closes every worker's and helper's job channel: a parked one
// exits at once, one still running a body when the body returns.
func (e *engine) stop() {
	for i, w := range e.workers {
		if w != nil {
			close(w)
			e.workers[i] = nil
		}
	}
	if e.team.jobs != nil {
		close(e.team.jobs)
		e.team.jobs, e.team.helpers = nil, 0
	}
}

// newTransport builds a fresh instance of the engine's backend.
func (e *Engine) newTransport() Transport {
	tr, err := newTransport(e.backend, e.n, e.chaos)
	if err != nil {
		// The backend was validated in New; a failure here is impossible.
		panic(err)
	}
	return tr
}

// deadlockError reports which processors had not finished when the
// watchdog fired, with their current round, to make schedule bugs (a
// missing Skip, mismatched partners) diagnosable.
func (e *Engine) deadlockError(r *run) error {
	var stuck []string
	for i := range r.procs {
		if p := &r.procs[i]; p.prog != -1 && !p.done.Load() {
			stuck = append(stuck, fmt.Sprintf("p%d(round %d)", p.rank, p.Round()))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("mpsim: deadlock after %v; stuck processors: %v", e.watchdog, stuck)
}
