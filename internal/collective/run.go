package collective

// The interpreter: the one executor of every compiled plan. A frame
// runs one rank's role of the step program on the engine's Proc API.
//
// Scratch and pool discipline: a role's scratch regions are acquired
// from the processor-local pool when the role starts, in declaration
// order, and released when it ends. Every payload takes one path, pack
// -> own -> land (exchange): packed into a buffer of the sender's pool,
// handed over for good (mpsim.Proc.ExchangeOwned), landed — copy or
// combine — by the receiver and released to the receiver's pool: two
// copies per byte per hop. The one exception is a swap (role.swaps): its
// payload is the scratch region's own buffer and the payload it receives
// becomes the region, no copy either way. After a failed round the region
// holds no buffer: the one it gave away may already sit in a peer's pool.

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

// frame is the state of one rank running one program: the top-level
// plan, or a sub-program embedded in it. Frames are recycled through
// framePool rather than kept on the stack: rank goroutines start on
// small stacks, and a few hundred bytes more on the path down to the
// engine round cost a small collective half its time in stack growth.
type frame struct {
	p       *mpsim.Proc
	pl      *Plan
	pr      *program
	members []int // sub-frame: group rank of each frame rank; nil at the top
	me      int
	reg     [maxRegs]region

	// The lists one exchange hands the engine; their capacity outlives
	// the run, so a steady state allocates nothing for them.
	sends []mpsim.Send
	froms []int
	recvd [][]byte
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// newFrame takes a frame from the pool for rank me's role of pr.
func newFrame(p *mpsim.Proc, pl *Plan, pr *program, members []int, me int) *frame {
	f := framePool.Get().(*frame)
	f.p, f.pl, f.pr, f.members, f.me = p, pl, pr, members, me
	if w := pr.width; cap(f.sends) < w {
		f.sends, f.froms, f.recvd = make([]mpsim.Send, 0, w), make([]int, 0, w), make([][]byte, 0, w)
	}
	return f
}

// run executes the frame's role and returns the frame to the pool,
// leaving no reference to the caller's memory behind in it.
func (f *frame) run() error {
	ro := f.pr.role(f.me)
	for i, sc := range ro.scratch {
		f.reg[int(regWork)+i] = region{shape{stride: sc.stride}, f.p.AcquireBuf(sc.bytes)}
	}
	var err error
	for i := 0; i < len(ro.steps) && err == nil; i++ {
		switch s := &ro.steps[i]; s.kind {
		case stepExchange:
			err = f.exchange(s)
		case stepSkip:
			f.p.SkipN(s.n)
		case stepEmbed:
			err = f.embed(s)
		default:
			f.local(s)
		}
	}
	for i := range ro.scratch {
		f.p.ReleaseBuf(f.reg[int(regWork)+i].data)
	}
	clear(f.sends[:cap(f.sends)])
	clear(f.recvd[:cap(f.recvd)])
	f.p, f.pl, f.pr, f.members = nil, nil, nil, nil
	f.reg = [maxRegs]region{}
	framePool.Put(f)
	return err
}

// embed runs an embedded sub-program in a frame of its own — the step's
// send extents are its input region, the recv extents its output region
// — then sits out the rest of the phase.
func (f *frame) embed(s *step) error {
	sub := newFrame(f.p, f.pl, s.em.sub, s.em.members, s.em.me)
	sub.reg[regIn] = region{shape{stride: sub.pr.bl}, f.view(s.xfers[0].send)}
	sub.reg[regOut] = region{shape{stride: sub.pr.bl}, f.view(s.xfers[0].recv)}
	err := sub.run()
	f.p.SkipN(s.n)
	return err
}

// id resolves a peer address to its engine rank.
func (f *frame) id(a rel) int {
	r := a.of(f.me, f.pr.n, 0)
	if f.members != nil {
		r = f.members[r]
	}
	return f.pl.group.ID(r)
}

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

// exchange runs one round, the one way a payload crosses from this
// rank's regions to a peer's: pack each send's extents into a pool
// buffer of exactly their size and hand it over; then land each received
// payload in its recv extents and release it to this rank's pool.
func (f *frame) exchange(s *step) error {
	f.sends, f.froms, f.recvd = f.sends[:0], f.froms[:0], f.recvd[:0]
	p := f.p
	for i := range s.xfers {
		x := &s.xfers[i]
		if x.to.mode != addrNone {
			var data []byte
			if x.swap {
				r := &f.reg[x.send[0].reg]
				data, r.data = r.data, nil
			} else {
				data = p.AcquireBuf(f.size(x.send))
				f.pack(data, x.send)
			}
			f.sends = append(f.sends, mpsim.Send{To: f.id(x.to), Data: data})
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
				err = f.unpack(x, ri)
			}
			p.ReleaseBuf(f.recvd[ri])
			ri++
		}
	}
	return err
}

// cursor walks the memory an extent list addresses, one piece at a
// time.
type cursor struct {
	f      *frame
	ext    []extent
	i, blk int
}

// next returns the next piece of the walk.
func (c *cursor) next() ([]byte, bool) {
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

// unpack lands the round's ri-th received payload in the transfer's recv
// extents, piece by piece — a swap moves it out of the received list to
// be their region — after checking that it is exactly the bytes they address.
func (f *frame) unpack(x *xfer, ri int) error {
	ext, buf := x.recv, f.recvd[ri]
	if want := f.size(ext); len(buf) != want {
		return fmt.Errorf("collective: received %d bytes from p%d into extents of %d bytes", len(buf), f.froms[ri], want)
	}
	if x.swap {
		f.reg[ext[0].reg].data, f.recvd[ri] = buf, nil
		return nil
	}
	for i := range ext {
		for b, e := 0, &ext[i]; b < int(e.n); {
			p, blocks := f.piece(e, b)
			f.land(p, buf[:len(p)], x.combine)
			buf = buf[len(p):]
			b += blocks
		}
	}
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
	d, s := cursor{f: f, ext: dst}, cursor{f: f, ext: src}
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
