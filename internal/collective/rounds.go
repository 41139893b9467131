package collective

// The round-major driver, the one round-synchronous walk: every rank's
// role runs on the caller's goroutine, round by round, with no Proc,
// transport, worker or watchdog. In round t each rank whose next
// exchange falls in t posts its sends — packed from its state before the
// round, or a swapped region — and lands its receives as soon as it and
// every sender it expects have posted, while the payloads are still in
// cache; landing runs its local steps up to its next exchange
// (cursor.next). The walk runs on a medium (run.go): bytes to execute a
// plan, labels to prove it (Plan.Check) and read its figures and
// messages. A k-port violation, a receive nobody feeds, a send nobody
// receives, a size that disagrees or a misaligned end is a fault of its
// round, named with the round and the ranks: bytes stop at the first,
// labels record each and walk on. Nothing waits, so nothing times out.

import "math/bits"

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

// rounds is the state of one walk. On the byte medium its engine keeps
// it between executions (mpsim.Engine.Inline) with its frames and free
// list, so a steady state of one plan allocates no frame, payload or
// scratch buffer; between executions it holds nothing else.
type rounds struct {
	pl    *Plan
	md    medium
	ranks []rankRun
	live  int // ranks whose role has not ended
	end   int // the latest round an ended role ends in
	at    int // the rank whose steps are running, for a panic's report

	free [bits.UintSize][][]byte // free[c]: buffers of capacity 1<<c
}

// rankRun is one rank of a walk.
type rankRun struct {
	top  frame     // the role's frame
	c    cursor    // c.f runs the pending exchange
	s    *step     // the pending exchange; nil once the role has ended
	want int       // receives of the pending exchange once it has posted, -1 before
	box  []payload // payloads posted to the rank in the current round
}

// runRounds executes the plan alone on the round-major driver its engine
// keeps, under the engine's run claim.
func (pl *Plan) runRounds(m Memory) (*Result, error) {
	err := pl.engine.Inline(func(state *any) error {
		d, _ := (*state).(*rounds)
		if d == nil {
			d = new(rounds)
			*state = d
		}
		return d.run(pl, bytesMedium{}, m.bind, nil)
	})
	if err != nil {
		return nil, err
	}
	return pl.result(), nil
}

// run walks pl on medium md: bind places each rank's input and output
// regions, and each, if set, sees every round the walk completes — 0
// before round 0, t+1 after round t.
func (d *rounds) run(pl *Plan, md medium, bind func(f *frame, me int), each func(done int)) (err error) {
	n := pl.group.Size()
	d.pl, d.md, d.live, d.end = pl, md, n, 0
	if cap(d.ranks) < n {
		d.ranks = make([]rankRun, n)
	}
	d.ranks = d.ranks[:n]
	defer func() {
		if v := recover(); v != nil {
			err = md.fault("group rank %d panicked: %v", d.at, v)
		}
		d.close()
	}()
	for me := range d.ranks {
		rk := &d.ranks[me]
		f := rk.top.start(md, d, pl, pl.prog, nil, me)
		bind(f, me)
		rk.c, rk.want = cursor{f: f}, -1
		d.advance(me)
	}
	if each != nil {
		each(0)
	}
	for t := 0; d.live > 0 || t < d.end; t++ {
		if err := d.round(t); err != nil {
			return err
		}
		if each != nil {
			each(t + 1)
		}
	}
	return d.aligned()
}

// advance runs rank me's local steps up to its next exchange.
func (d *rounds) advance(me int) {
	rk := &d.ranks[me]
	d.at = me
	if rk.s = rk.c.next(); rk.s == nil {
		d.live--
		d.end = max(d.end, rk.c.round)
	}
}

// round runs global round t: every rank whose next exchange falls in it
// posts, and lands once its senders have; a rank left waiting or a
// payload left unreceived is then a fault.
func (d *rounds) round(t int) error {
	for me := range d.ranks {
		if rk := &d.ranks[me]; rk.s != nil && rk.c.round == t {
			if err := d.post(me, t); err != nil {
				return err
			}
		}
	}
	for me := range d.ranks {
		rk := &d.ranks[me]
		if rk.want >= 0 { // more payloads than receives, or a sender missing
			if err := d.land(me, t); err != nil {
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

// post sends rank me's messages of round t, landing each receiver — and
// finally me — whose senders have all posted.
func (d *rounds) post(me, t int) error {
	rk := &d.ranks[me]
	f, s := rk.c.f, rk.s
	d.at = me
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
		dst := &d.ranks[q]
		dst.box = append(dst.box, payload{src: int32(me)})
		d.md.outgoing(f, x, &dst.box[len(dst.box)-1], me, q, t)
		if err := d.eager(q, t); err != nil {
			return err
		}
		d.at = me
	}
	rk.want = want
	return d.eager(me, t)
}

// eager lands rank me in round t if it has posted and every sender it
// expects has.
func (d *rounds) eager(me, t int) error {
	rk := &d.ranks[me]
	if rk.want != len(rk.box) {
		return nil
	}
	for i := range rk.s.xfers {
		if x := &rk.s.xfers[i]; x.from.mode != addrNone && find(rk.box, rk.c.f.rank(x.from)) < 0 {
			return nil
		}
	}
	return d.land(me, t)
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
func (d *rounds) land(me, t int) error {
	rk := &d.ranks[me]
	f, s := rk.c.f, rk.s
	d.at = me
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
		err := d.md.land(f, x, &rk.box[j], me, t)
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
	d.advance(me)
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

// close ends every rank's frames and takes back the payloads a failed
// run left in flight, leaving no reference to the plan or the caller's
// memory behind.
func (d *rounds) close() {
	for me := range d.ranks {
		rk := &d.ranks[me]
		rk.c.close()
		for i := range rk.box {
			d.ReleaseBuf(rk.box[i].data)
			rk.box[i] = payload{}
		}
		rk.box = rk.box[:0]
		rk.s = nil
	}
	d.pl, d.md = nil, nil
}

// AcquireBuf returns a length-n buffer from the driver's free list, one
// list per power-of-two capacity: every buffer of a run goes back to the
// list of its size, so the next run of the plan finds it again.
func (d *rounds) AcquireBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if l := d.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		d.free[c] = l[:len(l)-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// ReleaseBuf returns a buffer to the free list.
func (d *rounds) ReleaseBuf(b []byte) {
	if cap(b) > 0 {
		c := bits.Len(uint(cap(b))) - 1
		d.free[c] = append(d.free[c], b)
	}
}
