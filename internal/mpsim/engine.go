package mpsim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
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
	validate bool
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
	// fresh one.
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

	// running is set for the length of a run, which owns everything above.
	running atomic.Bool

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
		p.shard.groupOf, p.shard.record = e.groupOf, e.record
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

// Validate enables (default) or disables schedule validation: the k-port
// constraint per round, round agreement between matched sends and
// receives, and self-send detection.
func Validate(on bool) Option {
	return func(e *Engine) { e.validate = on }
}

// Watchdog sets how long Run waits for completion before reporting a
// deadlock. Zero or negative disables the watchdog.
func Watchdog(d time.Duration) Option {
	return func(e *Engine) { e.watchdog = d }
}

// WithTransport selects the message transport backend, BackendChan
// (default), BackendSlot, or BackendChaos with default configuration.
// See the Backend constants for the trade-off.
func WithTransport(b Backend) Option {
	return func(e *Engine) { e.backend = b }
}

// WithChaos selects the chaos transport with the given configuration:
// the engine wraps cfg.Inner (chan or slot) and injects seeded latency
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
// ends share a group, ClassInter otherwise. The tags flow into
// Event.Class and the Metrics.ClassRounds/ClassVolume splits of C1 and
// C2; connectivity and scheduling are unaffected. groupOf is copied;
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
		validate: true,
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
	tr, err := newTransport(e.backend, n, e.chaos)
	if err != nil {
		return nil, err
	}
	e.tr = tr
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

// Transport returns the backend the engine was created with.
func (e *Engine) Transport() Backend { return e.backend }

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
// The recorded Metrics for the run are available from Metrics afterwards.
//
// An Engine remains usable after any failed run: a processor's error or
// panic ends the run at once, without its peers' consequent errors, and
// a deadlocked run is fenced; either way the next run proceeds on a
// fresh transport (see "Run lifecycle" in the package documentation).
func (e *Engine) Run(body func(p *Proc) error) error {
	_, err := e.RunPrograms([]Program{{Body: body}})
	return err
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
// ranks claimed by no program sit the run out entirely, and every
// program records into its own Metrics, returned in program order. The
// k-port constraint is still enforced per processor, and under
// validation the round-uniformity check applies per program, so
// programs of different round counts may share a run as long as they
// never exchange messages across program boundaries (a cross-program
// message is caught by the round-alignment check as a misaligned
// schedule).
//
// A single program with nil Members is exactly Run. After a run with
// one program Metrics returns that program's metrics; after a
// multi-program run it returns nil — use the returned slice instead.
// Error and deadlock recovery behave as in Run: the whole run shares
// one transport and one watchdog, so a failure or a deadlock anywhere
// ends every program of the run. A call made while another run is in
// flight is rejected without touching it.
func (e *Engine) RunPrograms(progs []Program) ([]*Metrics, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("mpsim: RunPrograms with no programs")
	}
	if !e.running.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("mpsim: a run is already in flight on this engine (runs must not overlap)")
	}
	defer e.running.Store(false)
	r := e.cur
	for i := range r.procs {
		r.procs[i].prog = -1
	}
	spawn := 0
	for pi := range progs {
		if progs[pi].Body == nil {
			return nil, fmt.Errorf("mpsim: program %d has no body", pi)
		}
		if progs[pi].Members == nil {
			if len(progs) > 1 {
				return nil, fmt.Errorf("mpsim: program %d claims all ranks (nil Members) in a %d-program run", pi, len(progs))
			}
			for i := range r.procs {
				r.procs[i].prog = pi
			}
			spawn = e.n
			continue
		}
		if len(progs[pi].Members) == 0 {
			return nil, fmt.Errorf("mpsim: program %d has no members", pi)
		}
		for _, rank := range progs[pi].Members {
			if rank < 0 || rank >= e.n {
				return nil, fmt.Errorf("mpsim: program %d member %d out of range [0,%d)", pi, rank, e.n)
			}
			if prev := r.procs[rank].prog; prev != -1 {
				return nil, fmt.Errorf("mpsim: rank %d belongs to programs %d and %d; programs must be disjoint", rank, prev, pi)
			}
			r.procs[rank].prog = pi
			spawn++
		}
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
		p.recvs = 0
		p.shard.reset()
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
			return nil, err
		}
	} else {
		<-r.done
	}

	metrics := e.collect(r, len(progs))
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
		return nil, err
	}
	if e.validate {
		for pi := range progs {
			if err := r.uniformityError(pi); err != nil {
				if len(progs) > 1 {
					return nil, fmt.Errorf("mpsim: program %d: %w", pi, err)
				}
				return nil, err
			}
		}
	}
	return metrics, nil
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

// collect merges the shards of a run whose bodies have all returned into
// one Metrics per program, and notes whether the run left messages in
// the transport.
func (e *Engine) collect(r *run, programs int) []*Metrics {
	metrics := make([]*Metrics, programs)
	var sent, received int64
	for i := range r.procs {
		p := &r.procs[i]
		if p.prog == -1 {
			continue
		}
		if metrics[p.prog] == nil {
			metrics[p.prog] = &Metrics{groupOf: e.groupOf}
		}
		metrics[p.prog].merge(&p.shard)
		sent += p.shard.messageCount
		received += p.recvs
	}
	e.residue = sent != received
	e.metrics = nil
	if programs == 1 {
		e.metrics = metrics[0]
	}
	return metrics
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

// Metrics returns the metrics recorded by the most recent Run (or
// single-program RunPrograms), or nil if Run has not been called, the
// most recent run deadlocked or it executed multiple programs —
// per-program metrics are returned by RunPrograms itself.
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

// stop closes every worker's job channel: a parked worker exits at once,
// one still running a body when the body returns.
func (e *engine) stop() {
	for i, w := range e.workers {
		if w != nil {
			close(w)
			e.workers[i] = nil
		}
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
