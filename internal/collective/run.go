package collective

// The interpreter: one step loop over the compiled program, cursor.next,
// and two drivers of it. The engine driver (frame.run) runs each rank's
// role on the rank's mpsim worker, one ExchangeOwned per exchange; the
// round-major driver (rounds.go) runs every rank's role on the caller's
// goroutine, round by round. Plan.run picks one (plan.go).
//
// Scratch and pool discipline: a frame's scratch regions are acquired
// from its pool — the rank's processor-local pool under the engine, the
// driver's free list round-major — when the frame starts, in
// declaration order, and released when it ends. Every payload takes one
// path, pack -> own -> land: packed into a pool buffer, handed over for
// good, landed — copy or combine — by the receiver and released to the
// receiver's pool: two copies per byte per hop. The one exception is a
// swap (role.swaps): its payload is the scratch region's own buffer and
// the payload it receives becomes the region, no copy either way. After
// a failed round the region holds no buffer: the one it gave away may
// already sit in a peer's pool.

import (
	"fmt"
	"sync"

	"bruck/internal/mpsim"
)

// region is one memory of a running rank.
type region struct {
	shape
	data []byte
}

// pool is where a frame's buffers come from and go back to: the
// engine's Proc, or the round-major driver.
type pool interface {
	AcquireBuf(n int) []byte
	ReleaseBuf(b []byte)
}

// frame is the state of one rank running one program: the top-level
// plan, or a sub-program embedded in it. The round-major driver keeps a
// top frame per rank; every other frame is recycled through framePool
// rather than kept on the stack: rank goroutines start on small stacks,
// and a few hundred bytes more on the path down to the engine round
// cost a small collective half its time in stack growth.
type frame struct {
	pool    pool
	p       *mpsim.Proc // the engine driver's; nil round-major
	pl      *Plan
	pr      *program
	members []int  // sub-frame: group rank of each frame rank; nil at the top
	up      *frame // sub-frame: the frame it is embedded in; nil at the top
	me      int
	at      int // the next step of the role
	reg     [maxRegs]region

	// The lists one engine exchange hands the Proc; their capacity
	// outlives the run, so a steady state allocates nothing for them.
	sends []mpsim.Send
	froms []int
	recvd [][]byte
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// start readies the frame for rank me's role of pr and acquires the
// role's scratch regions from pool.
func (f *frame) start(pool pool, pl *Plan, pr *program, members []int, me int) *frame {
	f.pool, f.pl, f.pr, f.members, f.me = pool, pl, pr, members, me
	for i, sc := range pr.role(me).scratch {
		f.reg[int(regWork)+i] = region{shape{stride: sc.stride}, pool.AcquireBuf(sc.bytes)}
	}
	return f
}

// end releases the frame's scratch, leaving no reference to the plan or
// the caller's memory behind in it.
func (f *frame) end() {
	for i := range f.pr.role(f.me).scratch {
		f.pool.ReleaseBuf(f.reg[int(regWork)+i].data)
	}
	clear(f.sends[:cap(f.sends)])
	clear(f.recvd[:cap(f.recvd)])
	f.pool, f.p, f.pl, f.pr, f.members, f.up, f.at = nil, nil, nil, nil, nil, nil, 0
	f.reg = [maxRegs]region{}
}

// cursor is one rank's place in its role: the innermost running frame —
// an embedded sub-program runs in a sub-frame whose up chain leads back
// to the role's top frame — and the global round of the rank's next
// exchange.
type cursor struct {
	f     *frame
	round int
}

// next runs the rank's local steps up to its next exchange and returns
// it, to run in frame c.f; the caller runs it and counts its round. A
// skip, and the padding after an embedded sub-program, only move the
// round. At the end of the role the step is nil.
func (c *cursor) next() *step {
	f := c.f
	for {
		steps := f.pr.role(f.me).steps
		if f.at == len(steps) {
			up := f.up
			if up == nil {
				return nil
			}
			c.round += up.pr.role(up.me).steps[up.at].n
			up.at++
			f.end()
			framePool.Put(f)
			f, c.f = up, up
			continue
		}
		s := &steps[f.at]
		switch s.kind {
		case stepExchange:
			f.at++
			return s
		case stepSkip:
			c.round += s.n
			f.at++
		case stepEmbed:
			f = f.embed(s)
			c.f = f
		default:
			f.local(s)
			f.at++
		}
	}
}

// close ends every frame of the cursor, the innermost first, and
// returns the sub-frames to framePool; the top frame is its driver's.
func (c *cursor) close() {
	for f := c.f; f != nil; {
		up := f.up
		f.end()
		if up != nil {
			framePool.Put(f)
		}
		f = up
	}
	c.f = nil
}

// run is the engine driver: it executes the frame's role on the frame's
// Proc, then ends the frame.
func (f *frame) run() error {
	c, p, told := cursor{f: f}, f.p, 0
	var err error
	for err == nil {
		s := c.next()
		p.SkipN(c.round - told)
		if s == nil {
			break
		}
		err = c.f.exchange(s, c.round)
		c.round++
		told = c.round
	}
	c.close()
	return err
}

// embed starts the frame of an embedded sub-program — the step's send
// extents are its input region, the recv extents its output region; the
// rest of the phase is sat out when it ends (cursor.next).
func (f *frame) embed(s *step) *frame {
	sub := framePool.Get().(*frame).start(f.pool, f.pl, s.em.sub, s.em.members, s.em.me)
	sub.p, sub.up = f.p, f
	sub.reg[regIn] = region{shape{stride: sub.pr.bl}, f.view(s.xfers[0].send)}
	sub.reg[regOut] = region{shape{stride: sub.pr.bl}, f.view(s.xfers[0].recv)}
	return sub
}

// rank resolves a peer address to its group rank.
func (f *frame) rank(a rel) int {
	r := a.of(f.me, f.pr.n, 0)
	if f.members != nil {
		r = f.members[r]
	}
	return r
}

// id resolves a peer address to its engine rank.
func (f *frame) id(a rel) int { return f.pl.group.ID(f.rank(a)) }

// local runs a copy or spread step.
func (f *frame) local(s *step) {
	x := &s.xfers[0]
	if s.kind == stepCopy {
		f.zip(x.recv, x.send, x.combine)
		return
	}
	d, c := &x.recv[0], &x.send[0]
	dr, cr := &f.reg[d.reg], &f.reg[c.reg]
	for i := 0; i < int(d.n); i++ {
		do, dn := d.bytes(dr.shape, f.me, f.pr.n, i)
		co, cn := c.bytes(cr.shape, f.me, f.pr.n, i)
		copy(dr.data[do:do+dn], cr.data[co:co+cn])
	}
}

// exchange runs one engine round: pack each send's extents (outgoing)
// and hand them over; then land each received payload (unpack).
func (f *frame) exchange(s *step, round int) error {
	if w := f.pr.width; cap(f.sends) < w {
		f.sends, f.froms, f.recvd = make([]mpsim.Send, 0, w), make([]int, 0, w), make([][]byte, 0, w)
	}
	f.sends, f.froms, f.recvd = f.sends[:0], f.froms[:0], f.recvd[:0]
	p := f.p
	for i := range s.xfers {
		x := &s.xfers[i]
		if x.to.mode != addrNone {
			f.sends = append(f.sends, mpsim.Send{To: f.id(x.to), Data: f.outgoing(x)})
		}
		if x.from.mode != addrNone {
			f.froms = append(f.froms, f.id(x.from))
			f.recvd = append(f.recvd, nil)
		}
	}
	err := p.ExchangeOwned(f.sends, f.froms, f.recvd, s.n)
	ri := 0
	for i := range s.xfers {
		if x := &s.xfers[i]; x.from.mode != addrNone {
			if err == nil {
				err = f.unpack(x, f.recvd[ri], round)
			} else {
				p.ReleaseBuf(f.recvd[ri])
			}
			f.recvd[ri] = nil
			ri++
		}
	}
	return err
}

// outgoing is the payload of a send, the one way bytes leave a rank's
// regions: its extents packed into a pool buffer of exactly their size,
// or — a swap — the scratch region's own buffer.
func (f *frame) outgoing(x *xfer) []byte {
	if x.swap {
		r := &f.reg[x.send[0].reg]
		data := r.data
		r.data = nil
		return data
	}
	data := f.pool.AcquireBuf(f.size(x.send))
	f.pack(data, x.send)
	return data
}

// reader walks the memory an extent list addresses, one piece at a
// time.
type reader struct {
	f      *frame
	ext    []extent
	i, blk int
}

// next returns the next piece of the walk.
func (c *reader) next() ([]byte, bool) {
	for c.i < len(c.ext) && c.blk >= int(c.ext[c.i].n) {
		c.i, c.blk = c.i+1, 0
	}
	if c.i == len(c.ext) {
		return nil, false
	}
	p, blocks := c.f.piece(&c.ext[c.i], c.blk)
	c.blk += blocks
	return p, true
}

// piece returns the memory of an extent from its block b on, and the
// number of blocks that is: a contiguous extent — whole ascending blocks
// at a fixed place in a flat region — at once, any other block by block.
func (f *frame) piece(e *extent, b int) ([]byte, int) {
	r := &f.reg[e.reg]
	if e.n > 1 && b == 0 && e.contiguous(r.lay == nil) {
		lo := int(e.at.c) * r.stride
		return r.data[lo : lo+int(e.n)*r.stride], int(e.n)
	}
	off, ln := e.bytes(r.shape, f.me, f.pr.n, b)
	return r.data[off : off+ln], 1
}

// view returns the single piece an embed step's extent list addresses.
func (f *frame) view(ext []extent) []byte {
	if len(ext) == 0 {
		return nil
	}
	p, _ := f.piece(&ext[0], 0)
	return p
}

// size returns the bytes the extents address on this rank (xfer.bytes is
// the largest over ranks).
func (f *frame) size(ext []extent) int {
	n := 0
	for i := range ext {
		n += ext[i].size(f.reg[ext[i].reg].shape, f.me, f.pr.n)
	}
	return n
}

func (f *frame) pack(buf []byte, ext []extent) {
	for i := range ext {
		for b, e := 0, &ext[i]; b < int(e.n); {
			p, blocks := f.piece(e, b)
			buf = buf[copy(buf, p):]
			b += blocks
		}
	}
}

// unpack lands a payload received in round in the transfer's recv
// extents, piece by piece, and releases it to the frame's pool — a swap
// keeps it as their region — after checking that it is exactly the bytes
// they address.
func (f *frame) unpack(x *xfer, buf []byte, round int) error {
	ext := x.recv
	if want := f.size(ext); len(buf) != want {
		f.pool.ReleaseBuf(buf)
		return fmt.Errorf("collective: received %d bytes from p%d into extents of %d bytes in round %d", len(buf), f.id(x.from), want, round)
	}
	if x.swap {
		f.reg[ext[0].reg].data = buf
		return nil
	}
	src := buf
	for i := range ext {
		for b, e := 0, &ext[i]; b < int(e.n); {
			p, blocks := f.piece(e, b)
			f.land(p, buf[:len(p)], x.combine)
			buf = buf[len(p):]
			b += blocks
		}
	}
	f.pool.ReleaseBuf(src)
	return nil
}

// land writes src over dst, or combines it in; the kernel never sees an
// empty slab.
func (f *frame) land(dst, src []byte, combine bool) {
	switch {
	case !combine:
		copy(dst, src)
	case len(dst) > 0:
		f.pl.combine(dst, src)
	}
}

// zip moves src to dst as byte streams, piece boundaries on either side
// notwithstanding, until one of them ends.
func (f *frame) zip(dst, src []extent, combine bool) {
	d, s := reader{f: f, ext: dst}, reader{f: f, ext: src}
	var db, sb []byte
	for ok := true; ; {
		if len(db) == 0 {
			if db, ok = d.next(); !ok {
				return
			}
		}
		if len(sb) == 0 {
			if sb, ok = s.next(); !ok {
				return
			}
		}
		n := len(db)
		if len(sb) < n {
			n = len(sb)
		}
		f.land(db[:n], sb[:n], combine)
		db, sb = db[n:], sb[n:]
	}
}
