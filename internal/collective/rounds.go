package collective

// The round-major driver: every rank's role of one plan runs on the
// caller's goroutine, round by round, with no Proc, transport, worker or
// watchdog. The paper's machine is round-synchronous, and so is this
// driver: in round t each rank whose next exchange falls in t posts its
// sends — packed from its state before the round, or a swapped region —
// and a rank lands its receives as soon as it and every sender it
// expects have posted, while the payloads are still in cache. Landing
// runs the rank's local steps up to its next exchange (cursor.next).
//
// A receive nobody feeds, a send nobody receives, a size that disagrees
// and, under the engine's validation, a k-port violation or a misaligned
// end fail the run in the round they happen in, naming the round and the
// ranks with Plan.Check's texts: no round-synchronous driver can wait
// forever, so there is nothing to time out.

import (
	"fmt"
	"math/bits"

	"bruck/internal/mpsim"
)

// The texts a faulty round is reported with, by Plan.Check and by the
// round-major driver alike; ranks are group ranks.
const (
	errPorts      = "round %d: rank %d uses %d ports, k-port allows %d"
	errAddress    = "round %d: rank %d addresses rank %d (self-send or out of range; k-port)"
	errTwice      = "round %d: rank %d addresses rank %d twice (duplicate partner; k-port)"
	errUnreceived = "delivery: round %d: rank %d sends to rank %d, which does not receive it"
	errUnfed      = "delivery: round %d: rank %d waits for rank %d, which sends it nothing"
)

// rounds is the state of one round-major execution. Its engine keeps it
// between executions (mpsim.Engine.Inline) with its frames and free list,
// so a steady state of one plan allocates no frame, payload or scratch
// buffer; between executions it holds nothing else.
type rounds struct {
	pl       *Plan
	validate bool
	ranks    []rankRun
	live     int // ranks whose role has not ended
	at       int // the rank whose steps are running, for a panic's report
	res      *Result

	// Link-class counting, for a hierarchical plan on an engine that tags
	// classes: groupOf is the engine's, nil otherwise.
	groupOf []int
	levels  [mpsim.NumLinkClasses]LevelStats
	sent    [mpsim.NumLinkClasses]bool // the current round has a message of the class
	most    [mpsim.NumLinkClasses]int  // its largest one

	free [bits.UintSize][][]byte // free[c]: buffers of capacity 1<<c
}

// rankRun is one rank of a round-major execution.
type rankRun struct {
	top  frame     // the role's frame
	c    cursor    // c.f runs the pending exchange
	s    *step     // the pending exchange; nil once the role has ended
	want int       // receives of the pending exchange once it has posted, -1 before
	box  []payload // payloads posted to the rank in the current round
}

// payload is a message in flight from group rank src.
type payload struct {
	src  int
	data []byte
}

// runRounds executes the plan alone on the round-major driver its engine
// keeps, under the engine's run claim.
func (pl *Plan) runRounds(m Memory) (*Result, error) {
	var res *Result
	err := pl.engine.Inline(func(state *any) error {
		d, _ := (*state).(*rounds)
		if d == nil {
			d = new(rounds)
			*state = d
		}
		var err error
		res, err = d.run(pl, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run executes pl on m and returns the Result it counted.
func (d *rounds) run(pl *Plan, m Memory) (res *Result, err error) {
	n := pl.group.Size()
	d.pl, d.validate, d.live = pl, pl.engine.Validating(), n
	if cap(d.ranks) < n {
		d.ranks = make([]rankRun, n)
	}
	d.ranks = d.ranks[:n]
	d.res = &Result{RoundSizes: make([]int, 0, pl.c1)}
	d.groupOf, d.levels = nil, [mpsim.NumLinkClasses]LevelStats{}
	if pl.topo != nil {
		d.groupOf = pl.engine.GroupAssignment()
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("collective: group rank %d panicked: %v", d.at, v)
		}
		d.close()
	}()
	for me := range d.ranks {
		rk := &d.ranks[me]
		f := rk.top.start(d, pl, pl.prog, nil, me)
		m.bind(f, me)
		rk.c, rk.want = cursor{f: f}, -1
		d.advance(me)
	}
	for t := 0; d.live > 0; t++ {
		if err := d.round(t); err != nil {
			return nil, err
		}
	}
	if err := d.aligned(); err != nil {
		return nil, err
	}
	var levels *[mpsim.NumLinkClasses]LevelStats
	if d.groupOf != nil {
		levels = &d.levels
	}
	return pl.complete(d.res, levels), nil
}

// advance runs rank me's local steps up to its next exchange.
func (d *rounds) advance(me int) {
	rk := &d.ranks[me]
	d.at = me
	if rk.s = rk.c.next(); rk.s == nil {
		d.live--
	}
}

// round runs global round t: every rank whose next exchange falls in it
// posts, and lands once its senders have; a rank left waiting or a
// payload left unreceived then fails the run.
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
			if src, gap := d.missing(me); gap {
				return fmt.Errorf("collective: "+errUnfed, t, me, src)
			}
			if err := d.land(me, t); err != nil {
				return err
			}
		}
		if len(rk.box) > 0 {
			return fmt.Errorf("collective: "+errUnreceived, t, rk.box[0].src, me)
		}
	}
	d.tally(t)
	return nil
}

// post sends rank me's messages of round t, landing each receiver — and
// finally me — whose senders have all posted.
func (d *rounds) post(me, t int) error {
	rk := &d.ranks[me]
	f, s := rk.c.f, rk.s
	d.at = me
	if d.validate {
		if err := d.ports(me, t, f, s); err != nil {
			return err
		}
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
		if q < 0 || q >= len(d.ranks) {
			return fmt.Errorf("collective: "+errAddress, t, me, q)
		}
		data := f.outgoing(x)
		d.count(t, me, q, len(data))
		dst := &d.ranks[q]
		dst.box = append(dst.box, payload{me, data})
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
	if rk := &d.ranks[me]; rk.want == len(rk.box) {
		if _, gap := d.missing(me); !gap {
			return d.land(me, t)
		}
	}
	return nil
}

// missing returns a sender rank me's pending exchange expects that has
// not posted to it, if there is one.
func (d *rounds) missing(me int) (src int, gap bool) {
	rk := &d.ranks[me]
	for i := range rk.s.xfers {
		if x := &rk.s.xfers[i]; x.from.mode != addrNone {
			if src = rk.c.f.rank(x.from); find(rk.box, src) < 0 {
				return src, true
			}
		}
	}
	return 0, false
}

// find returns the index of src's payload in box, or -1.
func find(box []payload, src int) int {
	for j := range box {
		if box[j].src == src {
			return j
		}
	}
	return -1
}

// land lands rank me's receives of round t from its box, every sender
// having posted, and runs its local steps up to its next exchange.
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
		if j < 0 { // a partner named twice, with validation off
			return fmt.Errorf("collective: "+errUnfed, t, me, src)
		}
		buf, last := rk.box[j].data, len(rk.box)-1
		rk.box[j], rk.box[last] = rk.box[last], payload{}
		rk.box = rk.box[:last]
		if err := f.unpack(x, buf, t); err != nil {
			return rankErr(me, err)
		}
	}
	rk.want = -1
	rk.c.round++
	d.advance(me)
	return nil
}

// ports enforces the k-port model on rank me's exchange s of round t as
// the engine's validation does: at most k times lanes partners each way,
// none of them me, out of range or repeated.
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
				return fmt.Errorf("collective: "+errAddress, t, me, p)
			}
			for j := 0; j < i; j++ {
				if b := peer(&s.xfers[j]); b.mode != addrNone && f.rank(b) == p {
					return fmt.Errorf("collective: "+errTwice, t, me, p)
				}
			}
		}
		if used > budget {
			return fmt.Errorf("collective: "+errPorts, t, me, used, budget)
		}
	}
	return nil
}

// aligned holds, under validation, every rank that took part to end in
// the same round, as the engine's uniformity check does.
func (d *rounds) aligned() error {
	if !d.validate {
		return nil
	}
	first := -1
	for me := range d.ranks {
		switch end := d.ranks[me].c.round; {
		case end == 0:
		case first < 0:
			first = me
		case end != d.ranks[first].c.round:
			return fmt.Errorf("collective: misaligned schedule: rank %d ends in round %d, rank %d in round %d",
				first, d.ranks[first].c.round, me, end)
		}
	}
	return nil
}

// count adds one message of round t to the Result, and to its link
// class's share on an engine that tags classes.
func (d *rounds) count(t, src, dst, size int) {
	res := d.res
	for len(res.RoundSizes) <= t {
		res.RoundSizes = append(res.RoundSizes, 0)
	}
	res.RoundSizes[t] = max(res.RoundSizes[t], size)
	res.TotalBytes += int64(size)
	res.Messages++
	if d.groupOf != nil {
		class := mpsim.ClassIntra
		if d.groupOf[d.pl.group.ID(src)] != d.groupOf[d.pl.group.ID(dst)] {
			class = mpsim.ClassInter
		}
		d.sent[class], d.most[class] = true, max(d.most[class], size)
	}
}

// tally closes round t's counts: C1 counts a round with any message, C2
// its largest one, per link class likewise.
func (d *rounds) tally(t int) {
	if res := d.res; len(res.RoundSizes) > t {
		res.C1++
		res.C2 += res.RoundSizes[t]
	}
	for c := range d.levels {
		if d.sent[c] {
			d.levels[c].C1++
			d.levels[c].C2 += d.most[c]
		}
		d.sent[c], d.most[c] = false, 0
	}
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
	d.pl, d.res, d.groupOf = nil, nil, nil
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
