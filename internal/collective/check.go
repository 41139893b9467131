package collective

// Static plan verification: Plan.Check proves a compiled plan correct
// from its step program alone, without executing it on the engine. It
// runs the round-major driver's walk (rounds.go) on the label medium —
// every byte of every region carries the label of the input bytes it was
// made from — so what it proves is the walk that executes, and reports:
//
//   - the walk's faults: more than k (times lanes) sends or receives in
//     a round, a repeated partner, a self-send or a peer out of range, a
//     send nobody receives, a receive nobody feeds, sizes that disagree,
//     ranks that end in different rounds;
//   - what only labels show: extents outside their block or region,
//     phase tags, link classes or a swap flag that disagree, a rank
//     that writes a byte it sent by reference before every receiver may
//     have landed it (errRefWrite), a top-level step that writes the
//     input, which descriptors read in place (errInWrite), and a read
//     from an origin that does not hold the block's bytes (errOrigin);
//   - delivery violations: any output byte that does not end up holding
//     exactly what the operation defines (the transposed block, the
//     concatenated block, the combination of all n contributions), or
//     holds it only as a descriptor (errDescOut);
//   - C1/C2 that differ from the plan's stored predictions, or fall
//     below the paper's lower bounds, a phase table that does not tile
//     the rounds or misstates a phase's C2, and a stored Result whose
//     round sizes, message count, bytes or per-level split differ from
//     what the program sends.
//
// Labels are runs of bytes, so the cost is in blocks and extents, not
// in bytes: checking a whole corpus takes milliseconds, cheap enough for
// `bruckctl vet` to gate CI on it. The walk also lists what is sent
// (Plan.Messages), which CriticalPath and CriticalPathTopo price with
// per-processor clocks, and Snapshots draws the labels after each round
// as the paper's figures.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/trace"
)

// maxCheckViolations bounds a Check report: room for three rules once a
// rank of an 8-rank plan, and the delivery lines after.
const maxCheckViolations = 32

// errRefWrite is the hazard of a by-reference send. A receiver on another
// worker lands what rank r sent by reference in round t after the
// barrier that ends stretch t (rounds.go), while r may already land
// round t+1 and run the local steps that follow it. So the sent bytes
// are pinned from the post of round t until r's first exchange after
// round t+1, and any write to them — a landing, a local step, a swap —
// is this violation. Phrased in rounds, it holds at every worker count
// although the label walk runs at one.
const errRefWrite = "round %d: rank %d writes bytes it sent by reference in round %d, before every receiver may have landed them"

// errInWrite, errDescOut and errOrigin are the rules of descriptors
// (run.go). A block that holds one has no bytes of its own: the walk
// reads them, rounds later, from the input block its program names as
// its origin. So no step of a top-level program writes its input region
// (an embedded program's input is a view of its parent's extents), none
// ends the walk in an output block, and each named origin holds them.
const (
	errInWrite = "rank %d writes its input region, which descriptors read in place"
	errDescOut = "delivery: rank %d output block %d ends the walk held as a descriptor"
	errOrigin  = "rank %d reads a block from an origin that does not hold its bytes"
)

// lab is a run of n symbolic bytes at off: byte i holds the combination
// of byte src+i of the input regions of cnt contributing ranks, whose
// identities sum (hashed) to who; cnt 0 is bytes never written. pin is
// the last round the rank sent the bytes by reference in, plus one (0:
// never): they may not be written before its first exchange after the
// round that follows (errRefWrite). desc: the bytes are held as a
// descriptor.
type lab struct {
	off, n, src int
	cnt, pin    int32
	desc        bool
	who         uint64
}

// rankHash spreads rank identities so that sums of distinct rank sets
// differ (splitmix64).
func rankHash(r int) uint64 {
	z := uint64(r+1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// after returns the index of the first run of the sorted, disjoint list
// m that ends after off.
func after(m []lab, off int) int {
	return sort.Search(len(m), func(i int) bool { return m[i].off+m[i].n > off })
}

// clip returns the runs of m inside [off, off+n), rebased to start at 0.
func clip(m []lab, off, n int) []lab { return appendClip(nil, m, after(m, off), off, n, 0) }

// appendClip appends to out the runs of m inside [off, off+n), moved to
// start at at, searching m from run i: no later than the first run
// ending after off.
func appendClip(out, m []lab, i, off, n, at int) []lab {
	for ; i < len(m) && m[i].off < off+n; i++ {
		if l := m[i]; l.off+l.n > off {
			lo, hi := max(l.off, off), min(l.off+l.n, off+n)
			l.off, l.n, l.src = lo-off+at, hi-lo, l.src+lo-l.off
			out = append(out, l)
		}
	}
	return out
}

// put replaces [off, off+n) of m by the runs of rs in [from, from+n), in
// place: the runs of m it overlaps, from run i = after(m, off) on, give
// way to the part of the first before off, those of rs, and the part of
// the last after off+n. rs is searched from run at on.
func (lm *labels) put(m []lab, i, off, n int, rs []lab, at, from int) []lab {
	j := i
	for j < len(m) && m[j].off+m[j].n <= off+n {
		j++
	}
	repl := lm.repl[:0]
	if i < len(m) && m[i].off < off {
		head := m[i]
		head.n = off - head.off
		repl = append(repl, head)
	}
	repl = appendClip(repl, rs, at, from, n, off)
	if j < len(m) && m[j].off < off+n {
		tail, cut := m[j], off+n-m[j].off
		tail.off, tail.n, tail.src = off+n, tail.n-cut, tail.src+cut
		repl = append(repl, tail)
		j++
	}
	lm.repl = repl
	return slices.Replace(m, i, j, repl...)
}

// merge combines two run lists over the same range bytewise, consuming
// them; ok is false when they do not cover the same bytes from the same
// offsets.
func merge(a, b []lab) (out []lab, ok bool) {
	for len(a) > 0 && len(b) > 0 {
		x, y := &a[0], &b[0]
		if x.off != y.off || x.src != y.src {
			return nil, false
		}
		n := min(x.n, y.n)
		out = append(out, lab{off: x.off, n: n, src: x.src, cnt: x.cnt + y.cnt, who: x.who + y.who})
		x.off, x.n, x.src, y.off, y.n, y.src = x.off+n, x.n-n, x.src+n, y.off+n, y.n-n, y.src+n
		if x.n == 0 {
			a = a[1:]
		}
		if y.n == 0 {
			b = b[1:]
		}
	}
	return out, len(a) == 0 && len(b) == 0
}

// labels is the label medium: each rank's memories as runs of labels —
// its input and output regions, then every scratch region a frame of it
// acquires, each block an empty run until written (a write replaces
// runs, not inserts them) — and their sizes. add sees each violation;
// msgs are the messages sent, streams their labels — read at the post,
// or for a by-reference send at the land from the pieces refs holds —
// and tags each round's phase. A by-reference send pins its bytes in
// their runs (lab.pin); told holds what was reported, so each is
// reported once: the (rank, round sent, round written) of an
// errRefWrite, and the keys of once. A descriptor land marks the runs
// it writes desc.
type labels struct {
	pl      *Plan
	mems    [][][]lab
	size    [][]int
	phase   []string // each rank's pending exchange's
	entered []int    // each rank's last round entered, plus one
	add     func(string, ...any)
	msgs    []mpsim.Event
	streams [][]lab
	refs    [][]piece
	tags    map[int]string
	told    map[[3]int]bool
	repl    []lab    // put's
	dbuf    []lab    // write's, for descriptor lands
	hint    [][8]int // find's: the run each memory of each rank's last search found
}

// find returns after(m, off) for memory mem of rank r, trying first the
// runs around the one its last search found: pieces come in order, up
// or down.
func (lm *labels) find(r, mem, off int) int {
	m, h := lm.mems[r][mem], &lm.hint[r][mem%len(lm.hint[r])] // a guess: memories may share one
	ends := func(j int) bool { return m[j].off+m[j].n > off }
	lo, hi, step := 0, len(m), 1 // after(m, off) is in [lo, hi]
	if i := min(*h, len(m)); i < len(m) && !ends(i) {
		for lo = i + 1; lo+step-1 < hi && !ends(lo+step-1); step *= 2 {
			lo += step
		}
		hi = min(hi, lo+step-1)
	} else {
		for hi = i; hi-step >= 0 && ends(hi-step); step *= 2 {
			hi -= step
		}
		lo = max(0, hi-step+1)
	}
	*h = lo + after(m[lo:hi], off)
	return *h
}

// walkLabels runs the round-major driver's walk of pl on the label
// medium, on one worker, every rank's input labelled as its own: add
// (nil: nothing) sees each violation, each (if set) every round
// completed (rounds.run). It returns the medium and the round the walk
// ends in; the medium records every fault, so the walk always ends.
func (pl *Plan) walkLabels(add func(string, ...any), each func(lm *labels, done int)) (*labels, int) {
	if add == nil {
		add = func(string, ...any) {}
	}
	n := pl.group.Size()
	lm := &labels{pl: pl, mems: make([][][]lab, n), size: make([][]int, n), phase: make([]string, n), entered: make([]int, n), add: add,
		tags: map[int]string{}, told: map[[3]int]bool{}, hint: make([][8]int, n)}
	for r := range n {
		inSize, outSize := pl.sizes(r)
		lm.mems[r] = [][]lab{{{n: inSize, cnt: 1, who: rankHash(r)}}, blank(pl.prog.shapeOf(regOut, r), pl.blocks(regOut, r))}
		lm.size[r] = []int{inSize, outSize}
	}
	var d rounds
	var done func(int)
	if each != nil {
		done = func(t int) { each(lm, t) }
	}
	d.run(pl, lm, 1, done, nil)
	return lm, d.end
}

// bind places group rank me's input and output regions on its first two
// memories.
func (lm *labels) bind(f *frame, me int) {
	f.reg[regIn] = region{shape: lm.pl.prog.shapeOf(regIn, me), mem: 0}
	f.reg[regOut] = region{shape: lm.pl.prog.shapeOf(regOut, me), mem: 1}
}

func (lm *labels) acquire(f *frame, reg regID, bytes int) {
	r, m := f.rank(fixed(f.me)), blank(f.reg[reg].shape, bytes/max(f.reg[reg].stride, 1))
	f.reg[reg].mem = len(lm.mems[r])
	lm.mems[r], lm.size[r] = append(lm.mems[r], m), append(lm.size[r], bytes)
}

// blank returns a memory of blocks of shape sh never written: an empty
// run each.
func blank(sh shape, blocks int) []lab {
	m := make([]lab, 0, blocks)
	for j := range blocks {
		if off, ln := sh.span(j); ln > 0 {
			m = append(m, lab{off: off, n: ln})
		}
	}
	return m
}

func (*labels) release(*frame, regID) {}

func (lm *labels) local(f *frame, s *step) {
	r, x := f.rank(fixed(f.me)), &s.xfers[0]
	dst, src := lm.pieces(f, x.recv), lm.pieces(f, x.send)
	lm.guardIn(f, r, dst)
	for i := range src { // what the walk reads from its origin
		if i < len(x.origins) && x.origins[i].peer.mode != addrNone {
			lm.named(f, r, src[i], x.origins[i], lm.mems[r][src[i].mem], lm.find(r, src[i].mem, src[i].off), src[i].off)
			src[i].desc = true
		}
	}
	switch s.kind {
	case stepCopy:
		stream, total := lm.read(r, src)
		for i, avail := 0, total; i < len(dst); i++ { // the streams end together
			dst[i].n = min(dst[i].n, avail)
			avail -= dst[i].n
		}
		lm.write(r, dst, stream, x.combine, false)
	case stepSpread:
		for i := range dst {
			if i < len(src) {
				dst[i].n = min(dst[i].n, src[i].n)
				stream, _ := lm.read(r, []piece{{src[i].mem, src[i].off, dst[i].n, src[i].eoff, src[i].desc}})
				lm.write(r, dst[i:i+1], stream, false, false)
			}
		}
	}
}

func (lm *labels) embed(sub, f *frame, s *step) {
	for reg, exts := range [][]extent{regIn: s.xfers[0].send, regOut: s.xfers[0].recv} {
		if ps := lm.pieces(f, exts); len(ps) > 0 {
			sub.reg[reg].mem, sub.reg[reg].base = ps[0].mem, ps[0].off
		}
	}
}

// enter opens rank me's exchange of round t at its first send or
// receive, which frees the bytes the rank sent by reference before round
// t-1, and holds the exchange's phase to the round's and each
// transfer's swap flag to its extents. The exchange is the step before
// f.at (cursor.next).
func (lm *labels) enter(f *frame, me, t int) {
	if lm.entered[me] == t+1 {
		return
	}
	lm.entered[me] = t + 1
	s := &f.pr.role(f.me).steps[f.at-1]
	lm.phase[me] = f.phaseOf(s)
	if lm.tags[t] == "" {
		lm.tags[t] = lm.phase[me]
	} else if lm.phase[me] != lm.tags[t] {
		lm.add("round %d: rank %d runs phase %q while others run %q", t, me, lm.phase[me], lm.tags[t])
	}
	for i := range s.xfers {
		x := &s.xfers[i]
		if derived := f.pr.role(f.me).swaps(s, x); x.swap != derived {
			lm.add("round %d: rank %d: transfer has swap = %v, its extents say %v (one whole scratch region sent and received)", t, me, x.swap, derived)
		}
	}
}

// outgoing reads the send extents' labels — by reference, it pins their
// bytes instead, for the land to read — and lists the message; a
// hierarchical plan's phase moves over one link class.
func (lm *labels) outgoing(f *frame, x *xfer, p *payload, me, to, t int) error {
	lm.enter(f, me, t)
	ps := lm.pieces(f, x.send)
	var stream []lab
	var ref []piece
	n := 0
	if x.desc {
		for i := range ps {
			ps[i].desc = true
		}
		p.x = x
	}
	if x.ref && !x.desc {
		p.x, ref = x, ps
		for _, q := range ps {
			if n += q.n; q.n > 0 {
				lm.pin(me, q, t)
			}
		}
	} else {
		stream, n = lm.read(me, ps)
	}
	lm.msgs = append(lm.msgs, mpsim.Event{Round: t, Src: lm.pl.group.ID(me), Dst: lm.pl.group.ID(to), Size: n})
	lm.streams, lm.refs = append(lm.streams, stream), append(lm.refs, ref)
	if topo, phase := lm.pl.topo, lm.phase[me]; topo != nil {
		for _, ph := range lm.pl.phases {
			if ph.Name == phase && costmodel.LinkClass(ph.Class) != topo.LinkClass(me, to) {
				lm.add("round %d: phase %q is %v but rank %d -> %d is an %v link", t, phase, costmodel.LinkClass(ph.Class), me, to, topo.LinkClass(me, to))
			}
		}
	}
	p.msg = int32(len(lm.msgs) - 1)
	return nil
}

// named reports origin og, read for rank r's piece q, bytes [off,
// off+q.n) of the runs ls, unless run i = after(ls, off) holds them all,
// the same bytes of the input block og names (errOrigin).
func (lm *labels) named(f *frame, r int, q piece, og origin, ls []lab, i, off int) {
	o := f.rank(og.peer)
	j, ok := og.blk.of(o, f.pr.n, 0), og.peer.mode != addrNone && o >= 0 && o < len(lm.mems) && i < len(ls)
	if ok = ok && j >= 0 && j < lm.pl.blocks(regIn, o); ok {
		bo, bn := lm.pl.prog.shapeOf(regIn, o).span(j)
		l := ls[i]
		ok = l.off <= off && l.off+l.n >= off+q.n && l.cnt == 1 && l.who == rankHash(o) && l.src+off-l.off == bo+int(q.eoff) && int(q.eoff)+q.n <= bn
	}
	if !ok {
		lm.once(r, -3, errOrigin, r)
	}
}

// once reports a rule of rank r once a rank, told by (r, key, key): -1
// errInWrite, -2 errDescSend, -3 errOrigin.
func (lm *labels) once(r, key int, format string, args ...any) {
	if !lm.told[[3]int{r, key, key}] {
		lm.add(format, args...)
		lm.told[[3]int{r, key, key}] = true
	}
}

// guardIn reports a top-level step of rank r that writes its input
// region, once a rank (errInWrite).
func (lm *labels) guardIn(f *frame, r int, ps []piece) {
	for _, q := range ps {
		if f.up == nil && q.mem == 0 && q.n > 0 {
			lm.once(r, -1, errInWrite, r)
		}
	}
}

// land writes or combines the payload's labels into the recv extents if
// it is exactly their size.
func (lm *labels) land(f *frame, x *xfer, p *payload, me, t int) error {
	lm.enter(f, me, t)
	ps, want := lm.pieces(f, x.recv), 0
	for _, q := range ps {
		want += q.n
	}
	if m := lm.msgs[p.msg]; m.Size != want {
		lm.add("group rank %d: "+errSize, me, m.Size, m.Src, want, t)
		return nil
	}
	lm.guardIn(f, me, ps)
	stream, desc := lm.streams[p.msg], p.x != nil && p.x.desc
	if p.x != nil && !desc {
		stream, _ = lm.read(int(p.src), lm.refs[p.msg])
	}
	org, at := x.origins, 0
	for _, q := range ps { // what lands as bytes, the walk reads from its origin
		if at += q.n; desc && !(q.desc && !x.combine) {
			if len(org) == 0 { // as on bytes, a fault of the sender's
				lm.once(int(p.src), -2, errDescSend, t, p.src)
				break
			}
			lm.named(f, me, q, org[0], stream, after(stream, at-q.n), at-q.n)
			org = org[1:]
		}
	}
	lm.write(me, ps, stream, x.combine, desc)
	return nil
}

func (lm *labels) fault(format string, args ...any) error {
	lm.add(format, args...)
	return nil
}

// piece is a byte range of one symbolic memory, at eoff in its block
// (no pointer: the walk appends thousands); desc: a whole block of an
// extent marked desc, or — read — read as a descriptor or through its
// origin.
type piece struct {
	mem, off, n int
	eoff        int32
	desc        bool
}

// pieces resolves an extent list of frame f, reporting extents that
// leave their block or region.
func (lm *labels) pieces(f *frame, exts []extent) []piece {
	var out []piece
	r := f.rank(fixed(f.me))
	for i := range exts {
		e := &exts[i]
		v := &f.reg[e.reg]
		for b := 0; b < int(e.n); b++ {
			j, room := e.block(f.me, f.pr.n, b), lm.size[r][v.mem]-v.base
			if j < 0 || (v.lay == nil && (j+1)*v.stride > room) || (v.lay != nil && j >= v.lay.Cols()) {
				lm.add("rank %d: block %d outside region of %d bytes", r, j, room)
				continue
			}
			off, ln := e.bytes(v.shape, f.me, f.pr.n, b)
			if _, bn := v.span(j); ln < 0 || int(e.off)+ln > bn {
				lm.add("rank %d: extent [%d, %d) outside block of %d bytes", r, e.off, int(e.off)+ln, bn)
				continue
			}
			out = append(out, piece{v.mem, v.base + off, ln, e.off, e.desc && e.off == 0 && e.len < 0})
		}
	}
	return out
}

// pin marks the bytes of rank r's piece p sent by reference in round t,
// an unwritten gap among them by an empty run.
func (lm *labels) pin(r int, p piece, t int) {
	m := lm.mems[r][p.mem]
	i := lm.find(r, p.mem, p.off)
	if i < len(m) && m[i].off == p.off && m[i].n == p.n {
		m[i].pin = int32(t + 1)
		return
	}
	var rs []lab
	at := 0
	for _, l := range append(appendClip(nil, m, i, p.off, p.n, 0), lab{off: p.n}) { // the last gap ends at p.n
		if l.off > at {
			rs = append(rs, lab{off: at, n: l.off - at, pin: int32(t + 1)})
		}
		if at = l.off + l.n; l.n > 0 {
			l.pin = int32(t + 1)
			rs = append(rs, l)
		}
	}
	lm.mems[r][p.mem] = lm.put(m, i, p.off, p.n, rs, 0, 0)
}

// read gathers the labels of rank r's pieces as one stream, unpinned,
// without unwritten runs or, but for a piece read as a descriptor, ones
// held as a descriptor, and returns its size.
func (lm *labels) read(r int, ps []piece) ([]lab, int) {
	var out []lab
	total := 0
	for _, p := range ps {
		lo := len(out)
		out = appendClip(out, lm.mems[r][p.mem], lm.find(r, p.mem, p.off), p.off, p.n, total)
		for _, l := range out[lo:] {
			if l.cnt > 0 && (!l.desc || p.desc) {
				l.pin, l.desc = 0, false
				out[lo] = l
				lo++
			}
		}
		out = out[:lo]
		total += p.n
	}
	return out, total
}

// write scatters a label stream over rank r's pieces, combining when
// asked; a piece the rank may not write yet is a violation. If the
// stream arrives as descriptors, a piece marked desc holds it as one.
func (lm *labels) write(r int, ps []piece, stream []lab, combine, desc bool) {
	pos, at := 0, 0 // at: the first stream run that may hold pos
	for _, p := range ps {
		mem, now := &lm.mems[r][p.mem], lm.entered[r]
		m := *mem
		i := lm.find(r, p.mem, p.off)
		for j := i; p.n > 0 && j < len(m) && m[j].off < p.off+p.n; j++ {
			if sent := int(m[j].pin) - 1; sent >= 0 && now-1 <= sent+1 && !lm.told[[3]int{r, sent, now}] {
				lm.add(errRefWrite, now-1, r, sent)
				lm.told[[3]int{r, sent, now}] = true
				break
			}
		}
		for at < len(stream) && stream[at].off+stream[at].n <= pos {
			at++
		}
		if combine { // it reads what it writes: a descriptor is nothing
			old := slices.DeleteFunc(appendClip(nil, m, i, p.off, p.n, 0), func(l lab) bool { return l.cnt == 0 || l.desc })
			rs, ok := merge(old, appendClip(nil, stream, at, pos, p.n, 0))
			if !ok {
				lm.add("delivery: rank %d combines bytes of different origin or extent", r)
			}
			*mem = lm.put(m, i, p.off, p.n, rs, 0, 0)
		} else if desc && p.desc {
			rs := appendClip(lm.dbuf[:0], stream, at, pos, p.n, 0)
			for k := range rs {
				rs[k].desc = true
			}
			lm.dbuf = rs
			*mem = lm.put(m, i, p.off, p.n, rs, 0, 0)
		} else {
			*mem = lm.put(m, i, p.off, p.n, stream, at, pos)
		}
		pos += p.n
	}
}

// Check statically verifies the compiled plan and returns all
// violations found (capped at maxCheckViolations), or nil for a
// well-formed plan.
func (pl *Plan) Check() []string {
	var v []string
	add := func(format string, args ...any) {
		if len(v) < maxCheckViolations {
			v = append(v, fmt.Sprintf(format, args...))
		}
	}
	if pl.engine == nil || pl.group == nil || pl.prog == nil {
		add("plan has no engine, group or program")
		return v
	}
	n, k := pl.group.Size(), pl.engine.Ports()
	if n < 1 || k < 1 || pl.blockLen < 0 {
		add("degenerate configuration n=%d k=%d blockLen=%d", n, k, pl.blockLen)
		return v
	}
	res := &pl.res
	if pl.c1 < res.C1LowerBound {
		add("c1=%d below the paper's lower bound %d", pl.c1, res.C1LowerBound)
	}
	if res.C2 < res.C2LowerBound {
		add("c2=%d below the paper's lower bound %d", res.C2, res.C2LowerBound)
	}
	lm, c1 := pl.walkLabels(add, nil)
	// Count what the walk sent: messages, bytes, each round's largest
	// and the rounds that send one (busy), up to the last.
	maxes, tags, c2, total, busy, last := make([]int, c1), lm.tags, 0, int64(0), 0, -1
	for _, m := range lm.msgs {
		if m.Round > last {
			last, busy = m.Round, busy+1
		}
		maxes[m.Round] = max(maxes[m.Round], m.Size)
		total += int64(m.Size)
	}
	for _, m := range maxes {
		c2 += m
	}
	if c1 != pl.c1 {
		add("c1=%d but the program runs %d rounds", pl.c1, c1)
	}
	if c2 != res.C2 {
		add("c2=%d but the program's round maxima sum to %d bytes", res.C2, c2)
	}
	if busy != res.C1 || !slices.Equal(res.RoundSizes, maxes[:last+1]) {
		add("the Result has C1=%d and round sizes %v, the program sends in %d rounds with maxima %v", res.C1, res.RoundSizes, busy, maxes[:last+1])
	}
	if msgs := int64(len(lm.msgs)); msgs != res.Messages || total != res.TotalBytes {
		add("the Result has %d messages of %d bytes, the program sends %d of %d", res.Messages, res.TotalBytes, msgs, total)
	}
	lm.verify()
	// finish derived the phase table assuming each phase is one run of
	// rounds tagged with its name; re-derive it from the rounds that ran,
	// and the per-level split from it.
	first, levels := 0, [mpsim.NumLinkClasses]LevelStats{}
	for _, ph := range pl.phases {
		want := PlanPhase{Name: ph.Name, Class: ph.Class, First: first}
		for t := first; t < c1 && tags[t] == ph.Name; t++ {
			want.Rounds++
			want.C2 += maxes[t]
		}
		if ph != want {
			add("phase %q is rounds [%d, %d) with c2=%d, its tagged rounds are [%d, %d) with c2=%d (phases tile the rounds in order)",
				ph.Name, ph.First, ph.First+ph.Rounds, ph.C2, want.First, want.First+want.Rounds, want.C2)
		}
		first += want.Rounds
		levels[ph.Class].C1 += want.Rounds
		levels[ph.Class].C2 += want.C2
	}
	if pl.phases != nil && first != c1 {
		add("phases tile %d rounds, the program runs %d", first, c1)
	}
	for c, got := range []*LevelStats{mpsim.ClassIntra: res.Intra, mpsim.ClassInter: res.Inter} {
		if (got == nil) != (pl.phases == nil) || got != nil && (got.C1 != levels[c].C1 || got.C2 != levels[c].C2) {
			add("the Result's %v split is %+v, the phases give C1=%d C2=%d", costmodel.LinkClass(c), got, levels[c].C1, levels[c].C2)
		}
	}
	return v
}

// Snapshots draws the paper's processor-memory figures from the walk
// Check proves the plan with: every rank's in, scratch and out regions,
// one row per block, before round 0 and after each round (and the local
// steps that follow it, so the last is the operation's result).
func (pl *Plan) Snapshots() ([]trace.Step, error) {
	if v := pl.Check(); len(v) > 0 {
		return nil, fmt.Errorf("collective: %s plan fails Check: %s", pl.op, strings.Join(v, "; "))
	}
	var steps []trace.Step
	pl.walkLabels(nil, func(lm *labels, done int) {
		caption := "before round 0"
		if done > 0 {
			caption = fmt.Sprintf("after round %d", done-1)
		}
		steps = append(steps, lm.snapshot(caption))
	})
	return steps, nil
}

// CriticalPath prices one execution under p with per-processor clocks,
// the accounting Section 1.2 contrasts with Time's C1*Beta + C2*Tau,
// over the messages of the walk Check proves the plan with. In a round a
// sender pays MessageTime of its largest send (its ports run in
// parallel), a message arrives at its sender's round start plus its own
// MessageTime, and a processor leaves the round at the later of the two;
// the result is the latest clock. It equals Time on the paper's
// symmetric schedules and is below it on skewed ones such as folklore.
func (pl *Plan) CriticalPath(p costmodel.Profile) float64 {
	return pl.criticalPath(func(_, _, bytes int) float64 { return p.MessageTime(bytes) })
}

// CriticalPathTopo is CriticalPath with each message priced by the
// profile of its link's class under t, which must cover the plan's
// machine: a hierarchical plan's intra phases run on the fast clock.
func (pl *Plan) CriticalPathTopo(t *costmodel.Topology) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if t.N() != pl.engine.N() {
		return 0, fmt.Errorf("collective: topology covers %d processors, the plan's machine has %d", t.N(), pl.engine.N())
	}
	return pl.criticalPath(func(src, dst, bytes int) float64 {
		return t.ClassProfile(t.LinkClass(src, dst)).MessageTime(bytes)
	}), nil
}

// criticalPath runs the clocks over Messages, each message priced by
// price, and returns the latest.
func (pl *Plan) criticalPath(price func(src, dst, bytes int) float64) float64 {
	msgs := pl.Messages()
	start, clock := make([]float64, pl.engine.N()), make([]float64, pl.engine.N())
	for i, m := range msgs {
		if i > 0 && m.Round != msgs[i-1].Round {
			copy(start, clock)
		}
		at := start[m.Src] + price(m.Src, m.Dst, m.Size)
		clock[m.Src], clock[m.Dst] = max(clock[m.Src], at), max(clock[m.Dst], at)
	}
	return slices.Max(clock)
}

// Messages returns every message one execution sends as the engine
// records it (mpsim.Record): round, source and destination processor,
// size, and link class under the engine's topology, sorted by round,
// source and destination — read off the walk Check proves the plan
// with, so a live run records exactly these.
func (pl *Plan) Messages() []mpsim.Event {
	lm, _ := pl.walkLabels(nil, nil)
	if groupOf := pl.engine.GroupAssignment(); groupOf != nil {
		for i, m := range lm.msgs {
			if groupOf[m.Src] != groupOf[m.Dst] {
				lm.msgs[i].Class = mpsim.ClassInter
			}
		}
	}
	slices.SortFunc(lm.msgs, func(a, b mpsim.Event) int { return cmp.Or(a.Round-b.Round, a.Src-b.Src, a.Dst-b.Dst) })
	return lm.msgs
}

// snapshot draws every rank's regions, each as deep as its most blocks
// on any rank.
func (lm *labels) snapshot(caption string) trace.Step {
	pl, n := lm.pl, len(lm.mems)
	owner, nscratch := make(map[uint64]int, n), 0
	for r := 0; r < n; r++ {
		owner[rankHash(r)] = r
		nscratch = max(nscratch, len(pl.prog.role(r).scratch))
	}
	cells, depth, names := make([][][]trace.Label, n), make([]int, nscratch+2), make([]string, nscratch+2)
	for r := range cells {
		cells[r] = make([][]trace.Label, len(depth))
		draw := func(g int, name string, sh shape, mem, blocks int) {
			for j := 0; j < blocks; j++ {
				off, ln := sh.span(j)
				cells[r][g] = append(cells[r][g], lm.cell(clip(lm.mems[r][mem], off, ln), ln, owner))
			}
			depth[g], names[g] = max(depth[g], blocks), name
		}
		draw(0, "in", pl.prog.shapeOf(regIn, r), 0, pl.blocks(regIn, r))
		for i, sc := range pl.prog.role(r).scratch {
			draw(1+i, "scratch", shape{stride: sc.stride}, 2+i, sc.bytes/max(sc.stride, 1))
		}
		draw(len(depth)-1, "out", pl.prog.shapeOf(regOut, r), 1, pl.blocks(regOut, r))
	}
	cfg, rows := trace.NewConfig(n, 0), []string{}
	for g, d := range depth {
		at := len(cfg.Cells[0])
		for r := range cells {
			for len(cells[r][g]) < d {
				cells[r][g] = append(cells[r][g], trace.Empty)
			}
			cfg.Cells[r] = append(cfg.Cells[r], cells[r][g]...)
		}
		if d > 0 {
			rows = append(rows, fmt.Sprintf("%s %d-%d", names[g], at, at+d-1))
		}
	}
	return trace.Step{Caption: caption + " (" + strings.Join(rows, ", ") + ")", Config: cfg}
}

// cell draws ln bytes holding the runs got: one whole input block of one
// rank is its label, nothing trace.Empty, anything else trace.Mixed.
func (lm *labels) cell(got []lab, ln int, owner map[uint64]int) trace.Label {
	if got = slices.DeleteFunc(got, func(l lab) bool { return l.cnt == 0 }); len(got) == 0 {
		return trace.Empty
	}
	l := got[0]
	if from, ok := owner[l.who]; ok && len(got) == 1 && l.off == 0 && l.n == ln && l.cnt == 1 {
		in, blocks := lm.pl.prog.shapeOf(regIn, from), lm.pl.blocks(regIn, from)
		j := sort.Search(blocks, func(j int) bool { off, n := in.span(j); return off+n > l.src })
		if off, n := in.span(j); off == l.src && n == ln {
			return trace.Label{Proc: from, Block: j}
		}
	}
	return trace.Mixed
}

// verify checks that every output block holds exactly what the
// operation defines (Plan.goal).
func (lm *labels) verify() {
	pl, n := lm.pl, len(lm.mems)
	all := uint64(0)
	for r := 0; r < n; r++ {
		all += rankHash(r)
	}
	bad := 0
	for r := 0; r < n && bad < 3; r++ {
		out := pl.prog.shapeOf(regOut, r)
		for j := 0; j < pl.blocks(regOut, r) && bad < 3; j++ {
			from, blk, cnt := pl.goal(r, j)
			who := rankHash(from)
			if cnt == n {
				who = all
			}
			off, ln := out.span(j)
			srcOff, _ := pl.prog.shapeOf(regIn, from).span(blk)
			got := clip(lm.mems[r][1], off, ln)
			ok := ln == 0 || (len(got) > 0 && got[0].off == 0)
			for i, l := range got {
				if l.desc {
					lm.add(errDescOut, r, j)
					bad++
					break
				}
				ok = ok && l.src-l.off == srcOff && int(l.cnt) == cnt && l.who == who
				if i+1 < len(got) {
					ok = ok && l.off+l.n == got[i+1].off
				} else {
					ok = ok && l.off+l.n == ln
				}
			}
			if !ok {
				lm.add("delivery: rank %d output block %d does not hold its %d bytes of %s", r, j, ln, pl.op)
				bad++
			}
		}
	}
}
