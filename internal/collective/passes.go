package collective

// Program passes: program -> program rewrites that compile applies to
// what a family's compiler built, before the program is finished. A
// pass changes how a program moves its bytes, never what it delivers:
// the walks that already run every plan (Check, Verify, Messages) prove
// it.

import (
	"math"
	"slices"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
)

// pipeline splits every block into s byte spans (buffers.SplitSpans)
// that stream through the first run of exchange steps of a one-role
// program one merged round apart: lane seg of merged round t carries
// span seg of round t-seg, the live lanes sharing the ports of one
// exchange, so the run takes costmodel.PipelinedC1(rounds, s) rounds.
// The steps around the run are kept. s is clamped to the block size and
// the run's length; at 1 or under the program is returned as it is and
// nothing is allocated. It returns the program and the segment count
// applied, 0 for none. Two rounds of the run with one offset would put
// two lanes on one partner, which Check reports; the Bruck tables have
// none.
func pipeline(pr *program, s int) (*program, int) {
	if len(pr.roles) != 1 {
		return pr, 0
	}
	steps := pr.roles[0].steps
	first, last := exchangeRun(steps)
	rounds := steps[first:last]
	if s = min(s, pr.bl, len(rounds)); s <= 1 {
		return pr, 0
	}
	merged := costmodel.PipelinedC1(len(rounds), s)
	b := newBuilder(len(steps)-len(rounds)+merged, 0, 0)
	b.steps = append(b.steps, steps[:first]...)
	spans := buffers.SplitSpans(pr.bl, s)
	cut := func(es []extent, span buffers.Span) []extent {
		es = b.ext(es...)
		for i := range es {
			es[i].off, es[i].len = int32(span.Off), int32(span.Len)
		}
		return es
	}
	for t := 0; t < merged; t++ {
		lo, hi := max(0, t-len(rounds)+1), min(t, s-1)
		for seg := lo; seg <= hi; seg++ {
			for _, x := range rounds[t-seg].xfers {
				b.xfers = append(b.xfers, xfer{to: x.to, from: x.from, combine: x.combine, ref: x.ref,
					send: cut(x.send, spans[seg]), recv: cut(x.recv, spans[seg])})
			}
		}
		b.exchange(rounds[t-lo].phase, hi-lo+1)
	}
	out := *pr
	out.own[0] = role{steps: append(b.steps, steps[last:]...), scratch: pr.roles[0].scratch}
	out.roles = out.own[:]
	return &out, s
}

// exchangeRun returns the first run of exchange steps, the rounds
// pipeline splits.
func exchangeRun(steps []step) (first, last int) {
	for first < len(steps) && steps[first].kind != stepExchange {
		first++
	}
	for last = first; last < len(steps) && steps[last].kind == stepExchange; last++ {
	}
	return first, last
}

// place lays out the top-level roles of a plain program — its
// transfers all pack, every hop lands in its final place — and marks
// the transfers that may send descriptors or by reference. compile runs
// it before pipeline, which shifts every span's rounds by one lane
// offset and so opens no conflict; a program pipeline splits gets no
// descriptors, whose spans would each need their own. Embedded programs
// stay as they are, every transfer packed: a sub-frame ends, and goes
// back to framePool, while a reader may still hold it.
//
// A line is a whole block at one rank-relative address. A new value of
// it starts at each land of the whole block without combine. A
// descriptor value (describe) is only read, and its sends pin nothing.
// Every other value lives to its last use, a send that may go by
// reference to the end of its pin window: the rank's first exchange
// after the next round, the rule Check proves as errRefWrite. Coloured
// from the last back, each value takes the lowest colour no later value
// landing inside its window uses (left-edge interval colouring). Colour
// 0 is the line's own place, which the last value keeps and so does the
// caller's data in an input or output block; colour c >= 1 is a block
// of a compact scratch region holding one per line that uses it, in
// line order, so runs still join. A line stays in place if it is in a
// layout region or an embed's or a swap's extents, is reached twice
// through one extent, or needs more colours than there are scratch
// regions left; a role that addresses a region in two modes is left
// plain. Then each other non-swap transfer with a peer goes by
// reference unless a write touches its send bytes inside its pin
// window; without one, nothing is coloured. A list with a block that
// moves is rewritten and re-joined in place.
func place(pr *program, segments int) {
	descs := len(pr.roles) == 1 && pr.bl > 0 && (pr.inLay == nil || pr.inLay.Uniform()) && (pr.outLay == nil || pr.outLay.Uniform())
	if first, last := exchangeRun(pr.roles[0].steps); min(segments, pr.bl, last-first) > 1 {
		descs = false
	}
	for me := range pr.roles {
		pr.placeRole(me, descs)
	}
}

// use is one block of an extent list e as place sees it: when (2i for
// the sends of step i and an embed's extents, 2i+1 for its lands and a
// local step's extents), how, where the pin window of a send ends, its
// colour, and (describe) the value it reads or lands — 1 plus the use
// that landed it, 0 for none — and that value's origin.
type use struct {
	t, end   int32
	val      int32
	how, col uint8
	e        *extent
	x        *xfer
	org      origin
}

const (
	useWrite = 1 << iota // keeps the line's value
	useLand              // the whole block without combine: a new value
	useSend              // may go by reference
	useStay              // the line may not move
	useRecv              // an exchange's land
)

// placeRole places rank me's role (place), with descriptors if descs. A
// use's key is its line (region, block) over its order in the walk of
// the role, which visits the sends of an exchange before its lands:
// within a line, time order.
func (pr *program) placeRole(me int, descs bool) {
	ro := &pr.roles[me]
	var ubuf [128]use
	var kbuf [128]uint64
	var modes [maxRegs]addrMode // each region's address mode, plus one
	var up [maxRegs]bool        // whether an extent runs up a region
	uses, keys, mixed := ubuf[:0], kbuf[:0], false
	note := func(es []extent, t, end int, how uint8, x *xfer) {
		for i := range es {
			e, h := &es[i], how
			if e.off != 0 || e.len >= 0 {
				h = how&^useLand | how>>1&useWrite // part of the block: a land keeps the value
			}
			mixed, modes[e.reg], up[e.reg] = mixed || modes[e.reg] != 0 && modes[e.reg] != e.at.mode+1, e.at.mode+1, up[e.reg] || !e.rev
			for b := 0; b < int(e.n); b++ {
				keys = append(keys, uint64(e.reg)<<56|uint64(e.block(me, pr.n, b))&(1<<24-1)<<32|uint64(len(keys)))
				uses = append(uses, use{t: int32(t), end: int32(end), how: h, e: e, x: x})
			}
		}
	}
	for i, round := 0, 0; i < len(ro.steps); i, round = i+1, round+ro.steps[i].rounds() {
		switch s := &ro.steps[i]; s.kind {
		case stepEmbed:
			note(s.xfers[0].send, 2*i, 0, useWrite|useStay, nil)
			note(s.xfers[0].recv, 2*i, 0, useWrite|useStay, nil)
		case stepExchange:
			end := pinEnd(ro.steps, i, round)
			for j := range s.xfers {
				if x := &s.xfers[j]; ro.swaps(s, x) {
					note(x.send, 2*i, 0, useStay, x)
				} else {
					note(x.send, 2*i, end, useSend, x)
				}
			}
			for j := range s.xfers {
				how, x := uint8(useLand|useRecv), &s.xfers[j]
				if x.combine {
					how = useWrite | useRecv
				}
				if ro.swaps(s, x) {
					how |= useStay
				}
				note(x.recv, 2*i+1, 0, how, x)
			}
		case stepCopy, stepSpread:
			note(s.xfers[0].send, 2*i+1, 0, 0, &s.xfers[0])
			note(s.xfers[0].recv, 2*i+1, 0, useWrite, nil)
		}
	}
	if mixed {
		return
	}
	if descs {
		pr.describe(ro, uses, keys)
	}
	refs := false
	for i := range uses {
		u := &uses[i]
		if u.how&useSend != 0 {
			if u.x.desc {
				u.how &^= useSend // a descriptor is sent by value
			} else {
				u.x.ref, refs = true, true
			}
		}
		if !up[u.e.reg] { // lines in the order the extents run, so the compact blocks run up
			keys[i] ^= (1<<24 - 1) << 32
		}
	}
	var count [4]int32 // the lines using each colour
	stride := -1
	if refs {
		slices.Sort(keys)
	} else {
		keys = nil // no pin window: nothing to colour, nothing to hold a send to
	}
	for g, h := 0, 0; g < len(keys); g = h {
		for h = g + 1; h < len(keys) && keys[h]>>32 == keys[g]>>32; h++ {
		}
		if h == g+1 {
			continue // one use: nothing to colour, nothing to hold it to
		}
		line := keys[g:h]
		pr.colour(ro, line, uses, &count, &stride)
		for i, k := range line {
			u := &uses[uint32(k)]
			for j := i + 1; u.how&useSend != 0 && u.x.ref && j < len(line) && uses[uint32(line[j])].t < u.end; j++ {
				v := &uses[uint32(line[j])]
				u.x.ref = v.how&(useWrite|useLand) == 0 || v.t == u.t || v.col != u.col || v.e.off >= u.e.upto() || u.e.off >= v.e.upto()
			}
		}
	}
	if count[1] > 0 { // one allocation for the colour regions
		ro.scratch = slices.Grow(ro.scratch[:len(ro.scratch):len(ro.scratch)], len(count)-1)
	}
	for c := 1; c < len(count) && count[c] > 0; c++ {
		ro.scratch = append(ro.scratch, scratch{int(count[c]) * stride, stride})
	}
	for i := range ro.steps {
		for j := range ro.steps[i].xfers {
			x := &ro.steps[i].xfers[j]
			x.send, x.recv = rejoin(x.send), rejoin(x.recv)
		}
	}
}

// describe marks the descriptor transfers and lands of a one-role
// program and names their origins, its uses in walk order, each with its
// key. A transfer x on whole blocks of the program's size, to a peer
// that sends back to it through x, sends descriptors (x.desc) if every
// block it sends is input never written or a descriptor value: one
// landed whole, without combine, by such a transfer, that nothing writes
// before the line's next land, no packed transfer sends and is not the
// output's last. An extent lands descriptors (extent.desc) if every
// block of it does. A value's origin is the input block it began as, on
// the rank the hops' from addresses compose to (rel.then): x.origins
// names it for each block x lands as bytes, and a local step's for each
// block it reads if one is a descriptor value. Check proves all of it.
func (pr *program) describe(ro *role, uses []use, keys []uint64) {
	nb := pr.n // the blocks of the largest region
	for _, sc := range ro.scratch {
		nb = max(nb, sc.bytes/max(sc.stride, 1))
	}
	for _, k := range keys {
		if int(k>>32&(1<<24-1)) >= nb {
			return // a block outside its region: Check reports it
		}
	}
	var sbuf [256]int32
	st := sbuf[:min(len(sbuf), int(maxRegs)*nb)]
	if int(maxRegs)*nb > len(sbuf) {
		st = make([]int32, int(maxRegs)*nb)
	}
	line := func(i int) (int, regID) {
		return int(keys[i]>>56)*nb + int(keys[i]>>32&(1<<24-1)), regID(keys[i] >> 56)
	}
	// Back from the end: which extents may land descriptors.
	const later, dirty = 1, 2
	for i := len(uses) - 1; i >= 0; i-- {
		u := &uses[i]
		l, reg := line(i)
		switch {
		case u.how&useLand != 0:
			ok := st[l]&dirty == 0 && (st[l]&later != 0 || reg != regOut) && reg != regIn
			u.e.desc = ok && (i+1 == len(uses) || uses[i+1].e != u.e || u.e.desc) // its blocks are consecutive uses
			st[l] = later
		case u.how&(useWrite|useStay) != 0:
			st[l] |= dirty
		}
	}
	// Forward, again while a packed transfer sends a descriptor value,
	// whose land then lands bytes: which transfers send descriptors, and
	// each value's origin. st holds each line's value: 1 plus the use
	// that landed it, or 0 for the region's own bytes, -1 once written
	// otherwise. A land pairs with the send of the same block of its
	// transfer.
	held := func(u *use) bool { return u.val > 0 && uses[u.val-1].e.desc }
	for again := true; again; {
		clear(st)
		first := 0 // the send of the block landing
		for i := range uses {
			u := &uses[i]
			l, reg := line(i)
			u.val, u.org = st[l], origin{}
			switch {
			case u.how&useRecv != 0:
				if u.e.desc = u.e.desc && u.x.desc; u.x.desc {
					if uses[i-1].x != u.x || uses[i-1].how&useRecv == 0 { // its first land: back to its first send
						for first = i - 1; uses[first].x != u.x || uses[first].how&useRecv != 0; first-- {
						}
						for ; first > 0 && uses[first-1].x == u.x; first-- {
						}
					}
					s := &uses[first]
					u.org.peer, _ = u.x.from.then(s.org.peer, pr.n)
					u.org.blk, first = s.org.blk, first+1
				}
				st[l] = -1
				if u.how&useLand != 0 {
					st[l] = int32(i) + 1
				}
				continue
			case held(u):
				u.org = uses[u.val-1].org
			case u.val == 0 && reg == regIn: // its block at rank 0 is its address
				u.org = origin{plus(0), rel{int32(l - int(reg)*nb), u.e.at.mode}}
			}
			switch {
			case u.how&useSend != 0:
				if i == 0 || uses[i-1].x != u.x { // its first block
					u.x.desc = u.x.to.inverts(u.x.from, pr.n) && pr.whole(ro, u.x.send) && pr.whole(ro, u.x.recv)
				}
				_, ok := u.x.from.then(u.org.peer, pr.n)
				u.x.desc = u.x.desc && ok && u.org.peer.mode != addrNone
			case u.how&(useWrite|useStay) != 0:
				st[l] = -1
			}
		}
		again = false
		for i := range uses {
			if u := &uses[i]; u.how&useSend != 0 && !u.x.desc && held(u) {
				uses[u.val-1].e.desc, again = false, true
			}
		}
	}
	// The origin tables, in one allocation. A local step that reads a
	// descriptor value reads every block through one, its own naming none.
	for i := range uses {
		if u := &uses[i]; u.how == 0 && u.x != nil && held(u) {
			u.x.origins = []origin{}
		}
	}
	named := func(u *use) bool {
		return u.how&useRecv != 0 && u.x.desc && !u.e.held(u.x.combine) || u.how == 0 && u.x != nil && u.x.origins != nil
	}
	count := 0
	for i := range uses {
		if named(&uses[i]) {
			count++
		}
	}
	tab := make([]origin, 0, count)
	for i := range uses {
		if u := &uses[i]; named(u) {
			if cap(u.x.origins) == 0 {
				u.x.origins = tab[len(tab):len(tab)]
			}
			if u.how == 0 && !held(u) {
				u.org = origin{}
			}
			u.x.origins, tab = append(u.x.origins, u.org), tab[:len(tab)+1]
		}
	}
}

// whole reports whether the extents address whole blocks of the
// program's size: a transfer's send and recv blocks then pair up one to
// one, in order.
func (pr *program) whole(ro *role, es []extent) bool {
	for _, e := range es {
		w := int(e.reg) - int(regWork)
		if e.off != 0 || e.len >= 0 || w >= 0 && (w >= len(ro.scratch) || ro.scratch[w].stride != pr.bl) {
			return false
		}
	}
	return true
}

// rejoin joins the runs of an extent list in place. A list another
// transfer shares keeps its length there: its tail turns empty.
func rejoin(es []extent) []extent {
	out := es[:0]
	for _, e := range es {
		if e.n > 0 {
			out = join(out, e)
		}
	}
	for i := len(out); i < len(es); i++ {
		es[i].n = 0
	}
	return out
}

// colour cuts a line — its uses' keys in order — into values and colours
// them (place) unless it must stay, and moves every single-block extent
// of a value coloured c >= 1 to the line's block of the region of c.
func (pr *program) colour(ro *role, line []uint64, uses []use, count *[4]int32, stride *int) {
	type value struct {
		first      int // its first use
		start, end int32
		col        uint8
	}
	var vbuf [8]value
	vals := vbuf[:0]
	for i, k := range line {
		u, end := &uses[uint32(k)], uses[uint32(k)].t
		if u.how&useLand != 0 || i == 0 {
			vals = append(vals, value{i, -1, 0, 0})
			if u.how&useLand != 0 {
				vals[len(vals)-1].start = u.t
			}
		}
		if u.how&useSend != 0 {
			end = u.end
		}
		vals[len(vals)-1].end = max(vals[len(vals)-1].end, end)
	}
	if len(vals) < 2 {
		return
	}
	reg := regID(line[0] >> 56)
	w, st := int(reg)-int(regWork), pr.bl
	move := reg == regIn && (pr.inLay == nil || pr.inLay.Uniform()) || reg == regOut && (pr.outLay == nil || pr.outLay.Uniform())
	if w >= 0 && w < len(ro.scratch) {
		st, move = ro.scratch[w].stride, true
	}
	for i := 0; move && i < len(line); i++ {
		for j := 0; move && j <= i; j++ {
			move = uses[uint32(line[i])].how&useStay == 0 && (j == i || uses[uint32(line[j])].e != uses[uint32(line[i])].e)
		}
	}
	used, free := uint8(1), int(maxRegs-regWork)-len(ro.scratch)
	for i := len(vals) - 1; move && i >= 0; i-- {
		taken, c := uint8(0), uint8(0)
		for j := i + 1; j < len(vals) && vals[j].start < vals[i].end; j++ {
			taken |= 1 << vals[j].col
		}
		for ; i < len(vals)-1 && (vals[i].start >= 0 || w >= 0) && taken>>c&1 != 0; c++ {
		}
		vals[i].col, used, move = c, used|1<<c, taken>>c&1 == 0 && int(c) <= free
	}
	for v := range vals {
		for i := vals[v].first; move && i < len(line) && (v+1 == len(vals) || i < vals[v+1].first); i++ {
			move = vals[v].col == 0 || uses[uint32(line[i])].e.n == 1
		}
	}
	if *stride < 0 && move && used > 1 {
		*stride = st
	}
	if !move || used == 1 || *stride != st {
		return
	}
	var pos [4]int32
	for c := 1; c < len(pos); c++ {
		if used>>c&1 != 0 {
			pos[c], count[c] = count[c], count[c]+1
		}
	}
	for v := range vals {
		for i := vals[v].first; i < len(line) && (v+1 == len(vals) || i < vals[v+1].first); i++ {
			if u, c := &uses[uint32(line[i])], vals[v].col; c != 0 {
				u.col, u.e.reg, u.e.at, u.e.rev = c, regWork+regID(len(ro.scratch))+regID(c-1), fixed(int(pos[c])), false
			}
		}
	}
}

// upto returns where the extent's bytes end in a block: past its end if
// they run to it.
func (e *extent) upto() int32 {
	if e.len < 0 {
		return math.MaxInt32
	}
	return e.off + e.len
}

// pinEnd returns the time at which the pin window of a send in step i,
// round t, of steps ends: the rank's first exchange after round t+1.
func pinEnd(steps []step, i, t int) int {
	for r := t + 1; i+1 < len(steps); r += steps[i].rounds() {
		if i++; steps[i].kind == stepExchange && r >= t+2 {
			return 2 * i
		}
	}
	return math.MaxInt32
}
