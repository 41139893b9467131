package collective

import (
	"fmt"

	"bruck/internal/buffers"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// The one-to-all primitives use (k+1)-nomial trees over virtual ranks
// v = (rank - root) mod n. A node's place in the tree is determined by
// the lowest nonzero radix-(k+1) digit of its virtual rank: in the
// gather direction, node v with lowest nonzero digit t at position pos
// sends its accumulated segment [v, v + (k+1)^pos) to parent
// v - t*(k+1)^pos during the round in which position pos is active.
// For k = 1 these are the classic binomial trees.
//
// Like the flat collectives, the tree bodies move data through
// caller-owned or pool-recycled contiguous buffers: every message size
// is known from the tree shape, so receives use Proc.ExchangeInto and
// accumulation segments come from the processor-local pool.

// lowestDigitPos returns the position of the lowest nonzero radix-base
// digit of v > 0, and that digit's value.
func lowestDigitPos(v, base int) (pos, digit int) {
	for v%base == 0 {
		v /= base
		pos++
	}
	return pos, v % base
}

// Broadcast sends root's data block to every member of group g. The
// returned slice holds, for each group rank, its copy of the data.
//
// Broadcast allocates every member's result slice on each call; the
// allocation-free path is BroadcastInto.
func Broadcast(e *mpsim.Engine, g *mpsim.Group, root int, data []byte) ([][]byte, *Result, error) {
	n, err := checkRoot(e, g, "broadcast", root)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, n)
	err = e.Run(func(p *mpsim.Proc) error {
		me := g.Rank(p.Rank())
		if me < 0 {
			return nil
		}
		buf := make([]byte, len(data))
		if err := broadcastBodyInto(p, g, root, data, buf); err != nil {
			return fmt.Errorf("group rank %d: %w", me, err)
		}
		out[me] = buf
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, resultFrom(e.Metrics()), nil
}

// BroadcastInto is the caller-owned-memory broadcast: root's data lands
// in out.Block(i, 0) for every group rank i. out must be a
// concat-shaped Buffers (n processor regions of one block of len(data)
// bytes). Beyond pooled transport buffers the operation allocates
// nothing on a reused engine.
func BroadcastInto(e *mpsim.Engine, g *mpsim.Group, root int, data []byte, out *buffers.Buffers) (*Result, error) {
	n, err := checkRoot(e, g, "broadcast", root)
	if err != nil {
		return nil, err
	}
	if err := checkOneBlockShape("broadcast", out, n, len(data)); err != nil {
		return nil, err
	}
	err = e.Run(func(p *mpsim.Proc) error {
		me := g.Rank(p.Rank())
		if me < 0 {
			return nil
		}
		if err := broadcastBodyInto(p, g, root, data, out.Proc(me)); err != nil {
			return fmt.Errorf("group rank %d: %w", me, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resultFrom(e.Metrics()), nil
}

// checkRoot validates the group and root of a one-to-all primitive and
// returns the group size.
func checkRoot(e *mpsim.Engine, g *mpsim.Group, opName string, root int) (int, error) {
	if err := checkGroup(e, g); err != nil {
		return 0, err
	}
	if n := g.Size(); root < 0 || root >= n {
		return 0, fmt.Errorf("collective: %s root %d out of range [0,%d)", opName, root, n)
	}
	return g.Size(), nil
}

// checkOneBlockShape validates an n-member one-block-per-processor flat
// buffer of the given block size.
func checkOneBlockShape(opName string, b *buffers.Buffers, n, blockLen int) error {
	if b == nil {
		return fmt.Errorf("collective: nil flat buffer")
	}
	if b.Procs() != n || b.Blocks() != 1 || b.BlockLen() != blockLen {
		return fmt.Errorf("collective: %s buffer is %dx%d blocks of %d bytes, want %dx1 of %d",
			opName, b.Procs(), b.Blocks(), b.BlockLen(), n, blockLen)
	}
	return nil
}

// broadcastBodyInto runs the (k+1)-nomial broadcast, delivering the
// root's payload into the caller-owned buffer into on every member.
// Only the root reads data; len(into) must equal len(data) on every
// member (the length is part of the shared schedule).
func broadcastBodyInto(p *mpsim.Proc, g *mpsim.Group, root int, data, into []byte) error {
	n := g.Size()
	me := g.Rank(p.Rank())
	k := p.Ports()
	v := intmath.Mod(me-root, n)

	if v == 0 {
		copy(into, data)
	}
	if n == 1 {
		return nil
	}
	d := intmath.CeilLog(k+1, n)
	sends := make([]mpsim.Send, 0, k)
	// Rounds walk digit positions from the top down; leaves (lowest
	// digit at position 0) receive in the final round.
	for i := 0; i < d; i++ {
		pos := d - 1 - i
		base := intmath.Pow(k+1, pos)
		switch {
		case v%((k+1)*base) == 0:
			// Holder: send to children v + t*base that exist.
			sends = sends[:0]
			for t := 1; t <= k; t++ {
				child := v + t*base
				if child < n {
					sends = append(sends, mpsim.Send{To: g.ID(intmath.Mod(child+root, n)), Data: into})
				}
			}
			if len(sends) == 0 {
				p.Skip()
				continue
			}
			if err := p.ExchangeInto(sends, nil, nil); err != nil {
				return err
			}
		case v%base == 0:
			// Receiver: my lowest nonzero digit is at this position.
			_, digit := lowestDigitPos(v, k+1)
			parent := v - digit*base
			if err := p.ExchangeInto(nil, []int{g.ID(intmath.Mod(parent+root, n))}, [][]byte{into}); err != nil {
				return err
			}
		default:
			p.Skip()
		}
	}
	return nil
}

// Gather collects one block from every member of group g at root. The
// returned slice is the gathered blocks in group-rank order; it is
// non-nil only for the root (mirroring MPI_Gather semantics).
func Gather(e *mpsim.Engine, g *mpsim.Group, root int, in [][]byte) ([][]byte, *Result, error) {
	n, err := checkRoot(e, g, "gather", root)
	if err != nil {
		return nil, nil, err
	}
	if len(in) != n {
		return nil, nil, fmt.Errorf("collective: gather input has %d blocks, group has %d members", len(in), n)
	}
	blockLen := len(in[0])
	for i := range in {
		if len(in[i]) != blockLen {
			return nil, nil, fmt.Errorf("collective: gather block %d has %d bytes, want %d", i, len(in[i]), blockLen)
		}
	}
	out := make([][]byte, n)
	rootDone := false
	err = e.Run(func(p *mpsim.Proc) error {
		me := g.Rank(p.Rank())
		if me < 0 {
			return nil
		}
		buf, err := gatherBody(p, g, root, in[me], blockLen)
		if err != nil {
			return fmt.Errorf("group rank %d: %w", me, err)
		}
		if me == root {
			// buf is in virtual-rank order; convert to group-rank order
			// and recycle the pool segment.
			for v := 0; v < n; v++ {
				j := intmath.Mod(root+v, n)
				out[j] = append([]byte(nil), buf[v*blockLen:(v+1)*blockLen]...)
			}
			p.ReleaseBuf(buf)
			rootDone = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if !rootDone {
		return nil, nil, fmt.Errorf("collective: gather produced no root buffer")
	}
	return out, resultFrom(e.Metrics()), nil
}

// GatherInto is the caller-owned-memory gather: each member's block is
// in.Block(me, 0) (a concat-shaped Buffers of n one-block regions) and
// the concatenation lands at the root, in group-rank order, in the
// caller's out slice of n*blockLen bytes. Non-roots never touch out.
// Beyond pooled transport buffers the operation allocates nothing on a
// reused engine.
func GatherInto(e *mpsim.Engine, g *mpsim.Group, root int, in *buffers.Buffers, out []byte) (*Result, error) {
	n, err := checkRoot(e, g, "gather", root)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, fmt.Errorf("collective: nil flat buffer")
	}
	blockLen := in.BlockLen()
	if err := checkOneBlockShape("gather", in, n, blockLen); err != nil {
		return nil, err
	}
	if len(out) != n*blockLen {
		return nil, fmt.Errorf("collective: gather output is %d bytes, want n*b = %d", len(out), n*blockLen)
	}
	err = e.Run(func(p *mpsim.Proc) error {
		me := g.Rank(p.Rank())
		if me < 0 {
			return nil
		}
		buf, err := gatherBody(p, g, root, in.Proc(me), blockLen)
		if err != nil {
			return fmt.Errorf("group rank %d: %w", me, err)
		}
		if me == root {
			// buf is in virtual-rank order; rewrite into group-rank order
			// directly in the caller's memory.
			for v := 0; v < n; v++ {
				j := intmath.Mod(root+v, n)
				copy(out[j*blockLen:(j+1)*blockLen], buf[v*blockLen:])
			}
			p.ReleaseBuf(buf)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resultFrom(e.Metrics()), nil
}

// gatherBody runs the (k+1)-nomial gather and returns, at the root
// only, the concatenation in virtual-rank order (buf[v] = block of
// virtual rank v) in a pool-owned buffer the caller should release with
// Proc.ReleaseBuf. Non-roots return nil.
func gatherBody(p *mpsim.Proc, g *mpsim.Group, root int, myBlock []byte, blockLen int) ([]byte, error) {
	n := g.Size()
	me := g.Rank(p.Rank())
	k := p.Ports()
	v := intmath.Mod(me-root, n)

	if n == 1 {
		buf := p.AcquireBuf(blockLen)
		copy(buf, myBlock)
		//lint:allow bufown gatherBody's contract hands the pool buffer to the caller, which releases it (see doc comment)
		return buf, nil
	}
	d := intmath.CeilLog(k+1, n)
	// seg holds virtual ranks [v, v+segLen) of the concatenation; it
	// grows in place inside a pool buffer of the maximal capacity this
	// node can need.
	segCap := blockLen * intmath.Min(n, intmath.Pow(k+1, d))
	seg := p.AcquireBuf(segCap)[:blockLen]
	copy(seg, myBlock)
	sent := false
	froms := make([]int, 0, k)
	into := make([][]byte, 0, k)

	for pos := 0; pos < d; pos++ {
		base := intmath.Pow(k+1, pos)
		switch {
		case sent:
			p.Skip()
		case v%((k+1)*base) != 0:
			// My lowest nonzero digit is at this position: send my
			// accumulated segment to the parent and go quiet.
			_, digit := lowestDigitPos(v, k+1)
			parent := v - digit*base
			if err := p.ExchangeInto([]mpsim.Send{{To: g.ID(intmath.Mod(parent+root, n)), Data: seg}}, nil, nil); err != nil {
				return nil, err
			}
			sent = true
		default:
			// Receive from children v + t*base that exist, in order;
			// their consecutive segments extend seg in place.
			froms, into = froms[:0], into[:0]
			off := len(seg)
			for t := 1; t <= k; t++ {
				child := v + t*base
				if child >= n {
					break
				}
				want := intmath.Min(base, n-child) * blockLen
				froms = append(froms, g.ID(intmath.Mod(child+root, n)))
				into = append(into, seg[off:off+want])
				off += want
			}
			if len(froms) == 0 {
				p.Skip()
				continue
			}
			if err := p.ExchangeInto(nil, froms, into); err != nil {
				return nil, err
			}
			seg = seg[:off]
		}
	}
	if v != 0 {
		p.ReleaseBuf(seg)
		return nil, nil
	}
	if len(seg) != n*blockLen {
		return nil, fmt.Errorf("collective: gather root assembled %d bytes, want %d", len(seg), n*blockLen)
	}
	return seg, nil
}

// Scatter distributes root's per-member blocks: member with group rank
// j receives in[j]. in is only read at the root (mirroring MPI_Scatter
// semantics, but the simulation driver passes it uniformly). The
// returned slice holds each member's received block.
func Scatter(e *mpsim.Engine, g *mpsim.Group, root int, in [][]byte) ([][]byte, *Result, error) {
	n, err := checkRoot(e, g, "scatter", root)
	if err != nil {
		return nil, nil, err
	}
	if len(in) != n {
		return nil, nil, fmt.Errorf("collective: scatter input has %d blocks, group has %d members", len(in), n)
	}
	blockLen := len(in[0])
	for i := range in {
		if len(in[i]) != blockLen {
			return nil, nil, fmt.Errorf("collective: scatter block %d has %d bytes, want %d", i, len(in[i]), blockLen)
		}
	}
	// Reorder to virtual-rank order once.
	vbuf := make([]byte, n*blockLen)
	for v := 0; v < n; v++ {
		copy(vbuf[v*blockLen:], in[intmath.Mod(root+v, n)])
	}
	out := make([][]byte, n)
	err = e.Run(func(p *mpsim.Proc) error {
		me := g.Rank(p.Rank())
		if me < 0 {
			return nil
		}
		blk := make([]byte, blockLen)
		if err := scatterBodyInto(p, g, root, vbuf, blockLen, blk); err != nil {
			return fmt.Errorf("group rank %d: %w", me, err)
		}
		out[me] = blk
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, resultFrom(e.Metrics()), nil
}

// ScatterInto is the caller-owned-memory scatter: in is the root's
// per-member blocks as one n*blockLen slice in group-rank order (block
// j at offset j*blockLen), and each member's block lands in
// out.Block(me, 0) of a concat-shaped Buffers. in is only read at the
// root. Beyond pooled transport buffers the operation allocates nothing
// on a reused engine.
func ScatterInto(e *mpsim.Engine, g *mpsim.Group, root int, in []byte, out *buffers.Buffers) (*Result, error) {
	n, err := checkRoot(e, g, "scatter", root)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("collective: nil flat buffer")
	}
	blockLen := out.BlockLen()
	if err := checkOneBlockShape("scatter", out, n, blockLen); err != nil {
		return nil, err
	}
	if len(in) != n*blockLen {
		return nil, fmt.Errorf("collective: scatter input is %d bytes, want n*b = %d", len(in), n*blockLen)
	}
	err = e.Run(func(p *mpsim.Proc) error {
		me := g.Rank(p.Rank())
		if me < 0 {
			return nil
		}
		var vbuf []byte
		if me == root {
			// Reorder group-rank blocks into virtual-rank order inside a
			// pooled buffer; only the root reads it.
			vbuf = p.AcquireBuf(n * blockLen)
			defer p.ReleaseBuf(vbuf)
			for v := 0; v < n; v++ {
				copy(vbuf[v*blockLen:(v+1)*blockLen], in[intmath.Mod(root+v, n)*blockLen:])
			}
		}
		if err := scatterBodyInto(p, g, root, vbuf, blockLen, out.Proc(me)); err != nil {
			return fmt.Errorf("group rank %d: %w", me, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resultFrom(e.Metrics()), nil
}

// scatterBodyInto runs the (k+1)-nomial scatter (the gather tree
// reversed): vbuf is the full concatenation in virtual-rank order at
// the root (ignored elsewhere). Every member's own block lands in the
// caller-owned into slice.
func scatterBodyInto(p *mpsim.Proc, g *mpsim.Group, root int, vbuf []byte, blockLen int, into []byte) error {
	n := g.Size()
	me := g.Rank(p.Rank())
	k := p.Ports()
	v := intmath.Mod(me-root, n)

	if n == 1 {
		copy(into, vbuf[:blockLen])
		return nil
	}
	d := intmath.CeilLog(k+1, n)
	// seg covers virtual ranks [v, v+segLen/blockLen); at the root it
	// starts as the whole buffer, elsewhere it arrives mid-algorithm
	// into a pool buffer of the known segment size.
	var seg []byte
	havSeg := false
	if v == 0 {
		seg = p.AcquireBuf(len(vbuf))
		copy(seg, vbuf)
		havSeg = true
	}
	sends := make([]mpsim.Send, 0, k)
	for i := 0; i < d; i++ {
		pos := d - 1 - i
		base := intmath.Pow(k+1, pos)
		switch {
		case v%((k+1)*base) == 0 && havSeg:
			// Holder: carve off and send each existing child's segment
			// [child, child + base).
			sends = sends[:0]
			for t := 1; t <= k; t++ {
				child := v + t*base
				if child >= n {
					continue
				}
				lo := (child - v) * blockLen
				hi := lo + intmath.Min(base, n-child)*blockLen
				sends = append(sends, mpsim.Send{To: g.ID(intmath.Mod(child+root, n)), Data: seg[lo:hi]})
			}
			if len(sends) == 0 {
				p.Skip()
				continue
			}
			if err := p.ExchangeInto(sends, nil, nil); err != nil {
				return err
			}
			// Keep only my own prefix [v, v+base).
			keep := intmath.Min(base, n-v) * blockLen
			seg = seg[:keep]
		case v%base == 0 && v%((k+1)*base) != 0:
			_, digit := lowestDigitPos(v, k+1)
			parent := v - digit*base
			want := intmath.Min(base, n-v) * blockLen
			seg = p.AcquireBuf(want)
			havSeg = true
			if err := p.ExchangeInto(nil, []int{g.ID(intmath.Mod(parent+root, n))}, [][]byte{seg}); err != nil {
				return err
			}
		default:
			p.Skip()
		}
	}
	if len(seg) < blockLen {
		return fmt.Errorf("collective: scatter left virtual rank %d with %d bytes", v, len(seg))
	}
	copy(into, seg[:blockLen])
	p.ReleaseBuf(seg)
	return nil
}
