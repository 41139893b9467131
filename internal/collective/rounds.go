package collective

// The round-major driver, the one round-synchronous walk: every rank's
// role runs round by round, with no Proc, transport or watchdog, its
// ranks split into contiguous ranges over W workers (the caller's
// goroutine and the engine's parked mpsim.Team helpers). In round t each
// rank whose next exchange falls in t posts its sends — packed from its
// state before the round, or a swapped region — and lands its receives
// as soon as it and every sender it expects have posted, while the
// payloads are still in cache; landing runs its local steps up to its
// next exchange (cursor.next). A payload for another worker's rank waits
// in an outbox until a barrier has ended every worker's posts of round
// t; each worker then lands its ranks left waiting and posts round t+1,
// so a round costs one barrier. A rank reads only its own state and what
// its senders packed in the round, so the bytes are the same at every W.
// Several plans on disjoint groups (ExecutePlans) are dealt whole to the
// workers instead, each walked at W = 1 on its worker's own state.
// The walk runs on a medium (run.go): bytes to execute a plan, labels —
// at W = 1 — to prove it (Plan.Check) and read its figures and messages.
// A k-port violation, a receive nobody feeds, a send nobody receives, a
// size that disagrees or a misaligned end is a fault of its round, named
// with the round and the ranks: bytes stop at the next barrier with the
// lowest worker's fault (a lone fault has the text it has at W = 1),
// labels record each and walk on.
// Nothing waits for a rank that never posts, so nothing times out.

import (
	"errors"
	"math/bits"
	"runtime"

	"bruck/internal/mpsim"
)

// The texts a faulty round is reported with, on either medium; ranks are
// group ranks. errSize is also the engine driver's.
const (
	errPorts      = "round %d: rank %d uses %d ports, k-port allows %d"
	errAddress    = "round %d: rank %d addresses rank %d (self-send or out of range; k-port)"
	errTwice      = "round %d: rank %d addresses rank %d twice (duplicate partner; k-port)"
	errUnreceived = "delivery: round %d: rank %d sends to rank %d, which does not receive it"
	errUnfed      = "delivery: round %d: rank %d waits for rank %d, which sends it nothing"
	errSize       = "received %d bytes from p%d into extents of %d bytes in round %d"
)

// errPanicked stops a label walk at a panic the medium has listed.
var errPanicked = errors.New("collective: the walk stopped at a panic")

// walkParallelBytes is the fewest bytes the plans of an execution copy
// — the sum over their ranks of program.moved — for which the walk
// spreads them over GOMAXPROCS workers; below it one worker walks them
// all. BenchmarkDrivers sweeps the index at n = 16 over block sizes, at
// one worker and at GOMAXPROCS: on a 2-vCPU host at two Ps the split
// loses or ties up to b = 1 KiB (1.1 MB copied), where the barriers cost
// what the second core saves, and wins from b = 4 KiB (4.3 MB) on.
const walkParallelBytes = 2 << 20

// workers is the number of workers the walk spreads the jobs over.
func workers(jobs []Job) int {
	copied := 0
	for _, j := range jobs {
		copied += j.Plan.prog.copied
	}
	if copied < walkParallelBytes {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// walks is what an engine keeps between executions for the walk: the
// state of each worker jobs are dealt to, ds[0] also a lone job's.
type walks struct {
	ds   []*rounds
	jobs []Job   // a copy of the jobs of the execution in progress
	errs []error // errs[j]: job j's
	w    int     // the workers its jobs are dealt to
	work func(worker int)
}

// walkJobs executes the jobs' plans on the walks their engine keeps, on
// w workers, or on workers(jobs) if w is 0: a lone job split over them,
// several dealt to them in turn, each walked at one worker. It returns
// the error of the first job that fails; a worker runs no job after one
// of its own has failed.
func walkJobs(e *mpsim.Engine, jobs []Job, w int) error {
	return e.Inline(func(state *any, team *mpsim.Team) error {
		s, _ := (*state).(*walks)
		if s == nil {
			s = new(walks)
			s.work = s.walk
			*state = s
		}
		ws := w
		if ws == 0 {
			ws = workers(jobs)
		}
		s.w = min(ws, len(jobs))
		for len(s.ds) < s.w {
			s.ds = append(s.ds, newRounds())
		}
		if len(jobs) == 1 {
			d := s.ds[0]
			d.bm.m = jobs[0].Mem
			return d.run(jobs[0].Plan, &d.bm, ws, nil, team)
		}
		s.jobs = append(s.jobs[:0], jobs...)
		s.errs = append(s.errs[:0], make([]error, len(jobs))...)
		if s.w == 1 {
			s.walk(0)
		} else {
			team.Run(s.w, s.work)
		}
		var first error
		for _, err := range s.errs {
			if first == nil {
				first = err
			}
		}
		clear(s.errs)
		clear(s.jobs)
		return first
	})
}

// walk is worker i's share of several jobs: every w-th from job i, in
// turn, until one fails.
func (s *walks) walk(i int) {
	d := s.ds[i]
	for j := i; j < len(s.jobs); j += s.w {
		d.bm.m = s.jobs[j].Mem
		if s.errs[j] = d.run(s.jobs[j].Plan, &d.bm, 1, nil, nil); s.errs[j] != nil {
			return
		}
	}
}

// rounds is the state of one walk. On the byte medium its engine keeps
// it between executions (mpsim.Engine.Inline) with its frames and its
// workers' free lists, so a steady state of one plan allocates no frame,
// payload or scratch buffer; between executions it holds nothing else.
type rounds struct {
	pl    *Plan
	md    medium
	each  func(done int)
	ranks []rankRun
	ws    []*walker        // ws[:w] walk this run; the rest keep their free lists
	w     int              // the workers of this run
	team  *mpsim.Team      // the workers of a run with w > 1
	work  func(worker int) // d.walk, bound once: a run hands it to the team
	bm    bytesMedium      // the byte medium of an execution, md's target

	// What the last worker to reach a barrier tallies off all of them for
	// the next stretch: the ranks whose role has not ended, the latest
	// round an ended role ends in, and the fault that stops the walk.
	live, end int
	err       error
}

// rankRun is one rank of a walk.
type rankRun struct {
	top  frame     // the role's frame
	c    cursor    // c.f runs the pending exchange
	s    *step     // the pending exchange; nil once the role has ended
	want int       // receives of the pending exchange once it has posted, -1 before
	box  []payload // payloads posted to the rank in the current round
	w    int       // the worker that owns the rank
}

// walker is one worker of a walk: its range of ranks, its share of the
// walk's state, and its free list. Its ranks' packs draw from the list,
// and a landed payload goes back to it while it is hot in this worker's
// cache; close settles what the workers kept of each other's, so no
// list drains into another's from run to run.
type walker struct {
	d         *rounds
	id        int
	lo, hi    int         // the ranks it owns
	live, end int         // of its ranks
	at        int         // the rank whose steps are running, for a panic's report
	err       error       // its stretch's fault, for the next barrier
	posting   bool        // whether err is of the stretch's posts, not its landings
	out       [2][][]post // out[t%2][v]: round t's payloads for worker v's ranks
	owe       [][]uint8   // owe[v]: the capacity classes of worker v's payloads it kept
	from      int         // the worker whose payload is landing

	net [bits.UintSize]int // per capacity class, kept less lost: close's to settle

	free [bits.UintSize][][]byte // free[c]: buffers of capacity 1<<c
}

// post is a payload posted to rank to of another worker.
type post struct {
	to int
	p  payload
}

// newRounds returns the state of a byte walk, which its engine keeps.
func newRounds() *rounds {
	d := new(rounds)
	d.work = d.walk
	return d
}

// runRounds executes the plan alone on the round-major driver its engine
// keeps, under the engine's run claim.
func (pl *Plan) runRounds(m Memory) (*Result, error) {
	if err := walkJobs(pl.engine, []Job{{pl, m}}, 0); err != nil {
		return nil, err
	}
	return pl.result(), nil
}

// run walks pl on medium md with w workers of team (none if w is 1):
// md binds each rank's input and output regions, and each, if set — at
// w = 1 only — sees every round the walk completes: 0 before round 0,
// t+1 after round t.
func (d *rounds) run(pl *Plan, md medium, w int, each func(done int), team *mpsim.Team) error {
	n := pl.group.Size()
	w = min(w, n)
	d.pl, d.md, d.each, d.w, d.team, d.err = pl, md, each, w, team, nil
	if cap(d.ranks) < n {
		d.ranks = make([]rankRun, n)
	}
	d.ranks = d.ranks[:n]
	for len(d.ws) < w {
		d.ws = append(d.ws, &walker{d: d, id: len(d.ws), from: len(d.ws)})
	}
	for _, v := range d.ws {
		for len(v.owe) < len(d.ws) {
			v.out[0], v.out[1], v.owe = append(v.out[0], nil), append(v.out[1], nil), append(v.owe, nil)
		}
	}
	for i, v := range d.ws[:w] {
		v.lo, v.hi = i*n/w, (i+1)*n/w
		v.live, v.end, v.err = v.hi-v.lo, 0, nil
		for me := v.lo; me < v.hi; me++ {
			d.ranks[me].w = i
		}
	}
	defer d.close()
	if w == 1 {
		d.walk(0)
	} else {
		team.Run(w, d.work)
	}
	if d.err != nil {
		return d.err
	}
	return d.aligned()
}

// walk is worker i's part of the walk, a stretch between two barriers
// at a time: stretch t lands its ranks' receives of round t — stretch -1
// starts the ranks instead — and posts their sends of round t+1. The
// walk stops at a fault, or once no rank has a round left.
func (d *rounds) walk(i int) {
	w := d.ws[i]
	for t := -1; ; t++ {
		w.stretch(t)
		if d.w == 1 {
			d.tally()
		} else {
			d.team.Wait(d.tally)
		}
		if d.err != nil || d.live == 0 && t+1 >= d.end {
			return
		}
	}
}

// tally sums what the next stretch reads from every worker, and picks
// the fault that stops the walk: the lowest worker's of the landings,
// else of the posts, the order a walk on one worker runs them in. The
// last worker to reach the barrier runs it while the others wait.
func (d *rounds) tally() {
	d.live, d.end = 0, 0
	for _, w := range d.ws[:d.w] {
		d.live += w.live
		d.end = max(d.end, w.end)
	}
	for _, posting := range [2]bool{false, true} {
		for _, w := range d.ws[:d.w] {
			if w.err != nil && w.posting == posting && d.err == nil {
				d.err = w.err
			}
		}
	}
}

// stretch runs stretch t on the worker's ranks — each, if set, sees
// round t done between its landings and its posts — and keeps its fault,
// a panic being one, for the barrier.
func (w *walker) stretch(t int) {
	w.err, w.posting = nil, false
	defer func() {
		if v := recover(); v != nil {
			w.from = w.id
			if w.err = w.d.md.fault("group rank %d panicked: %v", w.at, v); w.err == nil {
				w.err = errPanicked
			}
		}
	}()
	if t < 0 {
		w.start()
	} else {
		w.err = w.lands(t)
	}
	if w.err != nil {
		return
	}
	if w.d.each != nil {
		w.d.each(t + 1)
	}
	w.posting = true
	w.err = w.posts(t + 1)
}

// start readies the worker's ranks and runs each up to its first
// exchange.
func (w *walker) start() {
	d := w.d
	for me := w.lo; me < w.hi; me++ {
		rk := &d.ranks[me]
		f := rk.top.start(d.md, w, d.pl, d.pl.prog, nil, me)
		d.md.bind(f, me)
		rk.c, rk.want = cursor{f: f}, -1
		w.advance(me)
	}
}

// advance runs rank me's local steps up to its next exchange.
func (w *walker) advance(me int) {
	rk := &w.d.ranks[me]
	w.at = me
	if rk.s = rk.c.next(); rk.s == nil {
		w.live--
		w.end = max(w.end, rk.c.round)
	}
}

// posts runs the posts of round t of the worker's ranks.
func (w *walker) posts(t int) error {
	d := w.d
	for me := w.lo; me < w.hi; me++ {
		if rk := &d.ranks[me]; rk.s != nil && rk.c.round == t {
			if err := w.post(me, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// lands takes in the payloads the other workers posted to the worker's
// ranks in round t and lands every rank left waiting; a rank left
// waiting or a payload left unreceived is then a fault.
func (w *walker) lands(t int) error {
	d := w.d
	for _, v := range d.ws[:d.w] {
		out := v.out[t%2][w.id]
		for i := range out {
			rk := &d.ranks[out[i].to]
			rk.box = append(rk.box, out[i].p)
			out[i] = post{}
		}
		v.out[t%2][w.id] = out[:0]
	}
	for me := w.lo; me < w.hi; me++ {
		rk := &d.ranks[me]
		if rk.want >= 0 { // more payloads than receives, or a sender missing
			if err := w.land(me, t); err != nil {
				return err
			}
		}
		for _, p := range rk.box {
			if err := d.md.fault(errUnreceived, t, p.src, me); err != nil {
				return err
			}
		}
		rk.box = rk.box[:0]
	}
	return nil
}

// post sends rank me's messages of round t — to another worker's rank
// through the outbox — landing each receiver of its own, and finally
// me, whose senders have all posted.
func (w *walker) post(me, t int) error {
	d := w.d
	rk := &d.ranks[me]
	f, s := rk.c.f, rk.s
	w.at = me
	if err := d.ports(me, t, f, s); err != nil {
		return err
	}
	want := 0
	for i := range s.xfers {
		x := &s.xfers[i]
		if x.from.mode != addrNone {
			want++
		}
		if x.to.mode == addrNone {
			continue
		}
		q := f.rank(x.to)
		if q < 0 || q >= len(d.ranks) { // a fault ports reported: the label medium walks on without it
			continue
		}
		if v := d.ranks[q].w; v != w.id {
			out := &w.out[t%2][v]
			*out = append(*out, post{to: q, p: payload{src: int32(me)}})
			d.md.outgoing(f, x, &(*out)[len(*out)-1].p, me, q, t)
			continue
		}
		dst := &d.ranks[q]
		dst.box = append(dst.box, payload{src: int32(me)})
		d.md.outgoing(f, x, &dst.box[len(dst.box)-1], me, q, t)
		if err := w.eager(q, t); err != nil {
			return err
		}
		w.at = me
	}
	rk.want = want
	return w.eager(me, t)
}

// eager lands rank me in round t if it has posted and every sender it
// expects has.
func (w *walker) eager(me, t int) error {
	rk := &w.d.ranks[me]
	if rk.want != len(rk.box) {
		return nil
	}
	for i := range rk.s.xfers {
		if x := &rk.s.xfers[i]; x.from.mode != addrNone && find(rk.box, rk.c.f.rank(x.from)) < 0 {
			return nil
		}
	}
	return w.land(me, t)
}

// find returns the index of src's payload in box, or -1.
func find(box []payload, src int) int {
	for j := range box {
		if int(box[j].src) == src {
			return j
		}
	}
	return -1
}

// land lands rank me's receives of round t from its box — a sender that
// has not posted is a fault — and runs its local steps up to its next
// exchange.
func (w *walker) land(me, t int) error {
	d := w.d
	rk := &d.ranks[me]
	f, s := rk.c.f, rk.s
	w.at = me
	for i := range s.xfers {
		x := &s.xfers[i]
		if x.from.mode == addrNone {
			continue
		}
		src := f.rank(x.from)
		j := find(rk.box, src)
		if j < 0 {
			if err := d.md.fault(errUnfed, t, me, src); err != nil {
				return err
			}
			continue
		}
		w.from = d.ranks[src].w
		err := d.md.land(f, x, &rk.box[j], me, t)
		w.from = w.id
		last := len(rk.box) - 1 // landed or not, the payload leaves the box
		rk.box[j] = rk.box[last]
		rk.box[last] = payload{}
		rk.box = rk.box[:last]
		if err != nil {
			return rankErr(me, err)
		}
	}
	rk.want = -1
	rk.c.round++
	w.advance(me)
	return nil
}

// ports enforces the k-port model on rank me's exchange s of round t: at
// most k times lanes partners each way, none of them me, out of range or
// repeated.
func (d *rounds) ports(me, t int, f *frame, s *step) error {
	budget := d.pl.engine.Ports() * max(s.n, 1)
	for _, recv := range [2]bool{false, true} {
		peer := func(x *xfer) rel {
			if recv {
				return x.from
			}
			return x.to
		}
		used := 0
		for i := range s.xfers {
			a := peer(&s.xfers[i])
			if a.mode == addrNone {
				continue
			}
			used++
			p := f.rank(a)
			if p == me || p < 0 || p >= len(d.ranks) {
				if err := d.md.fault(errAddress, t, me, p); err != nil {
					return err
				}
			}
			for j := 0; j < i; j++ {
				if b := peer(&s.xfers[j]); b.mode != addrNone && f.rank(b) == p {
					if err := d.md.fault(errTwice, t, me, p); err != nil {
						return err
					}
					break
				}
			}
		}
		if used > budget {
			if err := d.md.fault(errPorts, t, me, used, budget); err != nil {
				return err
			}
		}
	}
	return nil
}

// aligned holds every rank that took part to end in the same round, as
// the engine's uniformity check does.
func (d *rounds) aligned() error {
	first := -1
	for me := range d.ranks {
		switch end := d.ranks[me].c.round; {
		case end == 0:
		case first < 0:
			first = me
		case end != d.ranks[first].c.round:
			return d.md.fault("misaligned schedule: rank %d ends in round %d, rank %d in round %d",
				first, d.ranks[first].c.round, me, end)
		}
	}
	return nil
}

// close ends every rank's frames, takes back the payloads a failed run
// left in flight — each to its sender's worker — and settles what the
// workers kept of each other's payloads, per capacity class, from the
// workers that kept more than they lost to those that lost more, so
// every list ends the walk as full as it began it. It leaves no
// reference to the plan or the caller's memory behind.
func (d *rounds) close() {
	for me := range d.ranks {
		rk := &d.ranks[me]
		rk.c.close()
		for i := range rk.box {
			d.ws[d.ranks[rk.box[i].src].w].ReleaseBuf(rk.box[i].data)
			rk.box[i] = payload{}
		}
		rk.box = rk.box[:0]
		rk.s = nil
	}
	for _, v := range d.ws {
		for p := range v.out {
			for u, out := range v.out[p] {
				for i := range out {
					v.ReleaseBuf(out[i].p.data)
					out[i] = post{}
				}
				v.out[p][u] = out[:0]
			}
		}
		for u, owe := range v.owe {
			for _, c := range owe {
				v.net[c]++
				d.ws[u].net[c]--
			}
			v.owe[u] = owe[:0]
		}
	}
	for _, v := range d.ws { // a surplus has its buffers in v's list
		for c := range v.net {
			for _, u := range d.ws {
				for ; v.net[c] > 0 && u.net[c] < 0; v.net[c], u.net[c] = v.net[c]-1, u.net[c]+1 {
					u.ReleaseBuf(v.AcquireBuf(1 << c)[:0])
				}
			}
		}
	}
	d.pl, d.md, d.each, d.team, d.bm = nil, nil, nil, nil, bytesMedium{}
}

// AcquireBuf returns a length-n buffer from the worker's free list, one
// list per power-of-two capacity: every buffer of a run goes back to the
// list it came from, so the next run of the plan finds it again.
func (w *walker) AcquireBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if l := w.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		w.free[c] = l[:len(l)-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// ReleaseBuf returns a buffer to the free list, noting what it owes if
// the buffer is another worker's landed payload.
func (w *walker) ReleaseBuf(b []byte) {
	if cap(b) > 0 {
		c := bits.Len(uint(cap(b))) - 1
		if w.from != w.id {
			w.owe[w.from] = append(w.owe[w.from], uint8(c))
		}
		w.free[c] = append(w.free[c], b)
	}
}
