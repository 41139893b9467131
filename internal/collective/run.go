package collective

// The interpreter: cursor.next steps a rank's role — local steps, skips,
// embedded sub-programs — up to its next exchange, on a medium: bytes
// (bytesMedium) or labels (check.go). The round-major driver (rounds.go)
// runs every rank's exchanges round by round on either, its ranks split
// over workers on bytes; the engine driver (frame.run) runs each rank's
// on its mpsim worker, on bytes.
//
// Scratch and pool discipline: a frame's scratch regions are acquired
// from its pool — the rank's processor-local pool under the engine, its
// worker's free list round-major — when the frame starts, in
// declaration order, and released when it ends. Every payload takes one
// path, pack -> own -> land: packed into a pool buffer of exactly its
// extents' bytes on this rank (a layout family sends true block
// lengths), handed over for good, held to the receiver's extents before
// a byte is written, landed — copy or combine — and released to the
// receiver's pool, where its next pack finds it in cache; round-major a
// worker that keeps another's payload pays it back a buffer when the
// walk ends (rounds.close). Two copies per byte per hop. The one exception is a swap (role.swaps): its payload is the
// scratch region's own buffer and the payload it receives becomes the
// region, no copy either way. After a failed round the region holds no
// buffer: the one it gave away may already sit in a peer's pool.

import (
	"fmt"
	"sync"

	"bruck/internal/mpsim"
)

// region is one memory of a running rank: the shape of its blocks, and
// what holds them — data in the byte medium, the label medium's memory
// mem from offset base.
type region struct {
	shape
	data      []byte
	mem, base int
}

// pool is where the byte medium's buffers come from and go back to: the
// engine's Proc, or a worker of the round-major driver.
type pool interface {
	AcquireBuf(n int) []byte
	ReleaseBuf(b []byte)
}

// medium owns the contents of a frame's regions — the walker owns their
// addresses — and moves them: a rank's input and output regions bound at
// the start of the walk, scratch acquired at a frame's start and
// released at its end, local steps, an embedded frame's regions, and a
// round's sends and receives of group rank me in round t, each filling
// or landing a payload in its receiver's box. fault reports
// a faulty round: the byte medium returns it, stopping the run; the
// label medium records it and returns nil, and the walk goes on without
// the faulty delivery.
type medium interface {
	bind(f *frame, me int)
	acquire(f *frame, reg regID, bytes int)
	release(f *frame, reg regID)
	local(f *frame, s *step)
	embed(sub, f *frame, s *step)
	outgoing(f *frame, x *xfer, p *payload, me, to, t int)
	land(f *frame, x *xfer, p *payload, me, t int) error
	fault(format string, args ...any) error
}

// payload is a message in flight from group rank src: data on bytes; on
// labels, msg indexes the medium's list of what is sent. (32 bytes: the
// walker copies it in and out of boxes on every hop.)
type payload struct {
	src, msg int32
	data     []byte
}

// frame is the state of one rank running one program: the top-level
// plan, or a sub-program embedded in it. The round-major driver keeps a
// top frame per rank; every other frame is recycled through framePool
// rather than kept on the stack: rank goroutines start on small stacks,
// and a few hundred bytes more on the path down to the engine round
// cost a small collective half its time in stack growth.
type frame struct {
	md      medium
	pool    pool        // the byte medium's buffers
	p       *mpsim.Proc // the engine driver's; nil round-major
	pl      *Plan
	pr      *program
	members []int  // sub-frame: group rank of each frame rank; nil at the top
	up      *frame // sub-frame: the frame it is embedded in; nil at the top
	phase   string // sub-frame: the phase of the step it runs in
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

// start readies the frame for rank me's role of pr on medium md and
// acquires the role's scratch regions.
func (f *frame) start(md medium, pool pool, pl *Plan, pr *program, members []int, me int) *frame {
	f.md, f.pool, f.pl, f.pr, f.members, f.me = md, pool, pl, pr, members, me
	for i, sc := range pr.role(me).scratch {
		reg := regWork + regID(i)
		f.reg[reg].shape = shape{stride: sc.stride}
		md.acquire(f, reg, sc.bytes)
	}
	return f
}

// end releases the frame's scratch, leaving no reference to the plan or
// the caller's memory behind in it.
func (f *frame) end() {
	for i := range f.pr.role(f.me).scratch {
		f.md.release(f, regWork+regID(i))
	}
	clear(f.sends[:cap(f.sends)])
	clear(f.recvd[:cap(f.recvd)])
	f.md, f.pool, f.p, f.pl, f.pr, f.members, f.up, f.phase, f.at = nil, nil, nil, nil, nil, nil, nil, "", 0
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
			f.md.local(f, s)
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
	sub := framePool.Get().(*frame).start(f.md, f.pool, f.pl, s.em.sub, s.em.members, s.em.me)
	sub.p, sub.up, sub.phase = f.p, f, f.phaseOf(s)
	sub.reg[regIn].shape = shape{stride: sub.pr.bl}
	sub.reg[regOut].shape = shape{stride: sub.pr.bl}
	f.md.embed(sub, f, s)
	return sub
}

// phaseOf returns the phase step s runs in: the sub-frame's, or the
// step's own tag.
func (f *frame) phaseOf(s *step) string {
	if f.phase != "" {
		return f.phase
	}
	return s.phase
}

// rank resolves a peer address to its group rank; a sub-frame's peer
// outside its members is -1, out of range.
func (f *frame) rank(a rel) int {
	r := a.of(f.me, f.pr.n, 0)
	if f.members == nil {
		return r
	}
	if uint(r) < uint(len(f.members)) {
		return f.members[r]
	}
	return -1
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
		return fmt.Errorf("collective: "+errSize, len(buf), f.id(x.from), want, round)
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

// bytesMedium is the medium of an execution: a frame's regions are the
// caller's memory m and its pool's buffers.
type bytesMedium struct{ m Memory }

func (b bytesMedium) bind(f *frame, me int)          { b.m.bind(f, me) }
func (bytesMedium) acquire(f *frame, r regID, n int) { f.reg[r].data = f.pool.AcquireBuf(n) }
func (bytesMedium) release(f *frame, r regID)        { f.pool.ReleaseBuf(f.reg[r].data) }
func (bytesMedium) local(f *frame, s *step)          { f.local(s) }

func (bytesMedium) embed(sub, f *frame, s *step) {
	for reg, ext := range [][]extent{regIn: s.xfers[0].send, regOut: s.xfers[0].recv} {
		if len(ext) > 0 {
			sub.reg[reg].data, _ = f.piece(&ext[0], 0)
		}
	}
}

func (bytesMedium) outgoing(f *frame, x *xfer, p *payload, _, _, _ int) { p.data = f.outgoing(x) }

func (bytesMedium) land(f *frame, x *xfer, p *payload, _, t int) error { return f.unpack(x, p.data, t) }

func (bytesMedium) fault(format string, args ...any) error {
	return fmt.Errorf("collective: "+format, args...)
}
