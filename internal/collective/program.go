package collective

// The step program: the one representation every schedule family
// compiles to and everything else is derived from. The interpreter
// (run.go) executes it on the engine, Plan.Check (check.go) simulates
// it symbolically, finish below counts it and Listing prints it.
//
// A program is a list of steps per role. A translation-invariant
// family has one role shared by all n ranks, because peers and block
// addresses are rank-relative; only tree- and leader-structured
// schedules (the folklore baseline, the one-to-all primitives, the
// hierarchical plans) materialise one role per rank.

import (
	"fmt"
	"strings"

	"bruck/internal/blocks"
	"bruck/internal/costmodel"
)

type addrMode uint8

const (
	addrNone addrMode = iota // no peer: the transfer is one-sided
	addrAbs                  // c
	addrAdd                  // (me + c) mod n; a negative c is the paper's "-c"
	addrXor                  // me xor c
)

// rel is a rank-relative address, of a peer or of a block. (Like
// extent below it is stored compactly: a program holds thousands.)
type rel struct {
	c    int32
	mode addrMode
}

func fixed(c int) rel { return rel{int32(c), addrAbs} }
func plus(c int) rel  { return rel{int32(c), addrAdd} }
func xor(c int) rel   { return rel{int32(c), addrXor} }

// of resolves the address for rank me of n, moved i places along a run.
func (a rel) of(me, n, i int) int {
	switch a.mode {
	case addrAdd:
		// |c| and |i| stay below n, so the sum is at most two wraps
		// away: cheaper than a division on the interpreter's hot path.
		v := me + int(a.c) + i
		for v >= n {
			v -= n
		}
		for v < 0 {
			v += n
		}
		return v
	case addrXor:
		return me ^ (int(a.c) + i)
	default:
		return int(a.c) + i
	}
}

// regID names one memory of a running rank: the caller's input and
// output regions, then the role's pooled scratch regions in order.
type regID uint8

const (
	regIn regID = iota
	regOut
	regWork
	maxRegs = regWork + 3
)

// shape locates the blocks of a region: equal blocks of stride bytes,
// or — for the caller regions of a layout plan — one row of a layout.
type shape struct {
	stride int
	lay    *blocks.Layout
	row    int
}

func (s shape) span(j int) (off, n int) {
	if s.lay != nil {
		return s.lay.Offset(s.row, j) - s.lay.RowStart(s.row), s.lay.Count(s.row, j)
	}
	return j * s.stride, s.stride
}

// extent addresses bytes [off, off+len) of each of n consecutive blocks
// of a region, starting at block at; len < 0 runs to the block's end,
// so off = 0, len < 0 is whole blocks at whatever length the region
// gives them.
type extent struct {
	at       rel
	n        int32
	off, len int32
	reg      regID
	rev      bool // the run descends: block i is at moved by -i
}

func blocksAt(reg regID, at rel, n int) extent { return extent{reg: reg, at: at, n: int32(n), len: -1} }

func spanAt(reg regID, at rel, off, ln int) extent {
	return extent{reg: reg, at: at, n: 1, off: int32(off), len: int32(ln)}
}

// bytes returns the byte range of the extent's block i in a region of
// shape s, for rank me of n.
func (e *extent) bytes(s shape, me, n, i int) (off, ln int) {
	if e.rev {
		i = -i
	}
	bo, bn := s.span(e.at.of(me, n, i))
	if e.len < 0 {
		return bo + int(e.off), bn - int(e.off)
	}
	return bo + int(e.off), int(e.len)
}

// size returns the bytes the extent addresses in a region of shape s,
// for rank me of n.
func (e *extent) size(s shape, me, n int) int {
	if s.lay == nil {
		_, ln := e.bytes(s, 0, 1, 0)
		return ln * int(e.n)
	}
	total := 0
	for b := 0; b < int(e.n); b++ {
		_, ln := e.bytes(s, me, n, b)
		total += ln
	}
	return total
}

// contiguous reports whether the extent is one piece of memory: a
// single block, or whole ascending blocks at a fixed place in a flat
// region.
func (e *extent) contiguous(flat bool) bool {
	return e.n == 1 || (flat && e.at.mode == addrAbs && !e.rev && e.off == 0 && e.len < 0)
}

type stepKind uint8

const (
	stepExchange stepKind = iota // one k-port round of transfers
	stepCopy                     // recv <- send as byte streams (combined in when the transfer says so)
	stepSpread                   // block i of recv <- block i of send, cut to the shorter
	stepSkip                     // sit out n rounds
	stepEmbed                    // run a sub-program on a sub-frame, then sit out n rounds
)

// step is one instruction. Within an exchange all sends read the state
// before the step, then the round runs, then received bytes land; the
// steps of one role run in order. A local step is a single transfer
// from the rank to itself: it moves its send extents to its recv
// extents.
type step struct {
	kind  stepKind
	phase string // the round's name in the listing, a hierarchical plan's phase; "" for none
	xfers []xfer
	n     int    // exchange: lanes — the compiled rounds sharing the ports, 0 meaning one; skip, embed: rounds to sit out
	em    *embed // embed only
}

// embed places a sub-program: it sees the step's send extents as its
// input region and the recv extents as its output region, and this rank
// as rank me of a frame whose rank r is group rank members[r].
type embed struct {
	sub     *program
	members []int
	me      int
}

// xfer is one transfer of an exchange: send the send extents to rank
// to, receive from rank from into the recv extents.
type xfer struct {
	to, from   rel
	send, recv []extent
	combine    bool // received bytes combine into recv instead of overwriting
	swap       bool // role.swaps of it, fixed by finish: the region's buffer itself travels
	bytes      int  // payload size, fixed by finish; on layout extents the largest over ranks
}

type scratch struct{ bytes, stride int }

type role struct {
	steps   []step
	scratch []scratch
}

// swaps reports whether x, the only transfer of its exchange, sends and
// receives the same whole scratch region of the role without combine:
// then the buffers can change hands and nothing is copied (run.go).
func (ro *role) swaps(s *step, x *xfer) bool {
	if len(s.xfers) != 1 || x.to.mode == addrNone || x.from.mode == addrNone || x.combine ||
		len(x.send) != 1 || len(x.recv) != 1 || x.send[0] != x.recv[0] {
		return false
	}
	e, w := x.send[0], int(x.send[0].reg)-int(regWork)
	return w >= 0 && w < len(ro.scratch) && e.at == fixed(0) && !e.rev && e.off == 0 && e.len < 0 &&
		int(e.n)*ro.scratch[w].stride == ro.scratch[w].bytes
}

// program is a compiled schedule for n ranks with k ports on blocks of
// bl bytes. finish fills the derived fields.
type program struct {
	n, k, bl      int
	roles         []role         // one shared by all ranks, or one per rank
	inLay, outLay *blocks.Layout // layout plans: the shapes of the caller regions
	phases        []PlanPhase    // hierarchical plans: the declared phase order

	c1, c2, hint, width int
}

func (pr *program) role(me int) *role {
	if len(pr.roles) == 1 {
		return &pr.roles[0]
	}
	return &pr.roles[me]
}

// shapeOf returns the shape of region reg as rank me's role sees it.
func (pr *program) shapeOf(reg regID, me int) shape {
	switch {
	case reg == regIn:
		return shape{pr.bl, pr.inLay, me}
	case reg == regOut:
		return shape{pr.bl, pr.outLay, me}
	default:
		return shape{stride: pr.role(me).scratch[reg-regWork].stride}
	}
}

// measure returns the bytes the extents address for rank me.
func (pr *program) measure(exts []extent, me int) int {
	total := 0
	for i := range exts {
		total += exts[i].size(pr.shapeOf(exts[i].reg, me), me, pr.n)
	}
	return total
}

// tally is the counter's state: the largest message and the phase of
// every global round, and the largest pool acquisition.
type tally struct {
	max   []int
	phase []string
	hint  int
}

func (ts *tally) note(t, bytes int, phase string) {
	for len(ts.max) <= t {
		ts.max = append(ts.max, 0)
	}
	if bytes > ts.max[t] {
		ts.max[t] = bytes
	}
	if ts.phase != nil { // only a program with declared phases reads them back
		for len(ts.phase) <= t {
			ts.phase = append(ts.phase, "")
		}
		ts.phase[t] = phase
	}
	if bytes > ts.hint {
		ts.hint = bytes
	}
}

// walk counts rank me's role from global round t on and returns the
// round it ends in. It also fixes each transfer's size and swap flag.
func (pr *program) walk(me, t int, phase string, ts *tally) int {
	ro := pr.role(me)
	for _, sc := range ro.scratch {
		if sc.bytes > ts.hint {
			ts.hint = sc.bytes
		}
	}
	for i := range ro.steps {
		s := &ro.steps[i]
		ph := phase
		if ph == "" {
			ph = s.phase
		}
		switch s.kind {
		case stepExchange:
			if len(s.xfers) > pr.width {
				pr.width = len(s.xfers)
			}
			for j := range s.xfers {
				x := &s.xfers[j]
				exts := x.send
				if x.to.mode == addrNone {
					exts = x.recv
				}
				b := pr.measure(exts, me)
				if b > x.bytes {
					x.bytes = b
				}
				x.swap = ro.swaps(s, x)
				if x.to.mode != addrNone {
					ts.note(t, b, ph)
				}
			}
			t++
		case stepSkip:
			t += s.n
		case stepEmbed:
			t = s.em.sub.walk(s.em.me, t, ph, ts) + s.n
		}
	}
	return t
}

// finish derives what a plan reports from the program itself: rounds
// (C1), volume (C2: the sum over rounds of the round's largest
// message), the largest pool acquisition, the widest round, and the
// per-phase split of a hierarchical schedule. A shared role on flat
// regions sizes every rank alike, so one walk counts it; per-rank roles
// and layout extents are walked rank by rank.
func (pr *program) finish() {
	ranks := 1
	if len(pr.roles) > 1 || pr.inLay != nil {
		ranks = pr.n
	}
	ts := tally{max: make([]int, 0, len(pr.roles[0].steps))}
	if pr.phases != nil {
		ts.phase = make([]string, 0, len(pr.roles[0].steps))
	}
	for me := 0; me < ranks; me++ {
		if t := pr.walk(me, 0, "", &ts); t > pr.c1 {
			pr.c1 = t
		}
	}
	pr.hint = ts.hint
	if pr.hint < pr.bl {
		pr.hint = pr.bl
	}
	pr.c2 = 0
	for _, m := range ts.max {
		pr.c2 += m
	}
	first := 0
	for i := range pr.phases {
		ph := &pr.phases[i]
		ph.First, ph.Rounds, ph.C2 = first, 0, 0
		for t, name := range ts.phase {
			if name == ph.Name {
				ph.Rounds++
				ph.C2 += ts.max[t]
			}
		}
		first += ph.Rounds
	}
}

// Listing renders the compiled program as deterministic text, the
// artifact the golden corpus pins. A header gives the plan's shape and
// measures (and the layout digest of a ragged plan, the topology and
// phase table of a hierarchical one); then each role, shared ("*") or
// per rank, with its scratch regions ({bytes stride}), one line per step
// and one per transfer under it, in the program's rank-relative
// notation; an embedded sub-program is listed under its step.
func (pl *Plan) Listing() string {
	w := &strings.Builder{}
	fmt.Fprintf(w, "%s %s n=%d k=%d blockLen=%d segments=%d c1=%d c2=%d\n",
		pl.op, pl.alg, pl.group.Size(), pl.engine.Ports(), pl.blockLen, pl.segments, pl.c1, pl.c2)
	if pl.layout != nil {
		fmt.Fprintf(w, "layout %016x\n", pl.layout.Digest())
	}
	if pl.topo != nil {
		fmt.Fprintf(w, "topology %s\n", pl.topo.Spec())
	}
	for _, ph := range pl.phases {
		fmt.Fprintf(w, "phase %s %v first=%d rounds=%d c2=%d\n", ph.Name, costmodel.LinkClass(ph.Class), ph.First, ph.Rounds, ph.C2)
	}
	pl.prog.list(w, "")
	return w.String()
}

// list writes the program's roles at indent ind (see Listing).
func (pr *program) list(w *strings.Builder, ind string) {
	for r, ro := range pr.roles {
		who := fmt.Sprint(r)
		if len(pr.roles) == 1 {
			who = "*"
		}
		fmt.Fprintf(w, "%srole %s scratch %v\n", ind, who, ro.scratch)
		for i, s := range ro.steps {
			fmt.Fprintf(w, "%s  %d %s %q", ind, i, [...]string{"exchange", "copy", "spread", "skip", "embed"}[s.kind], s.phase)
			switch s.kind {
			case stepExchange:
				fmt.Fprintf(w, " lanes=%d", max(s.n, 1))
			case stepSkip, stepEmbed:
				fmt.Fprintf(w, " skip=%d", s.n)
			}
			if s.em != nil {
				fmt.Fprintf(w, " me=%d members=%v", s.em.me, s.em.members)
			}
			for _, x := range s.xfers {
				fmt.Fprintf(w, "\n%s    to %v from %v send %s recv %s bytes=%d%s%s", ind, x.to, x.from, extents(x.send), extents(x.recv),
					x.bytes, map[bool]string{true: " combine"}[x.combine], map[bool]string{true: " swap"}[x.swap])
			}
			w.WriteString("\n")
			if s.em != nil {
				fmt.Fprintf(w, "%s    program n=%d k=%d blockLen=%d c1=%d c2=%d\n", ind, s.em.sub.n, s.em.sub.k, s.em.sub.bl, s.em.sub.c1, s.em.sub.c2)
				s.em.sub.list(w, ind+"    ")
			}
		}
	}
}

// String writes the address as the program reads it: c, +c (a negative c
// is -c), ^c, or "-" for no peer.
func (a rel) String() string {
	if a.mode == addrNone {
		return "-"
	}
	return fmt.Sprintf([...]string{addrAbs: "%d", addrAdd: "%+d", addrXor: "^%d"}[a.mode], a.c)
}

// extents writes an extent list: region@address*blocks, then the byte
// range inside each block ([off:] runs to its end, the whole block
// shows none) and "rev" for a descending run; "-" when empty.
func extents(es []extent) string {
	parts := []string{"-"}
	for i, e := range es {
		p := fmt.Sprintf("%s@%v*%d", [...]string{"in", "out", "w0", "w1", "w2"}[e.reg], e.at, e.n)
		if e.len >= 0 {
			p += fmt.Sprintf("[%d:%d]", e.off, e.off+e.len)
		} else if e.off > 0 {
			p += fmt.Sprintf("[%d:]", e.off)
		}
		if e.rev {
			p += "rev"
		}
		parts = append(parts[:i], p)
	}
	return strings.Join(parts, ",")
}

// builder slab-allocates the steps, transfers and extents of one role.
type builder struct {
	steps []step
	xfers []xfer
	exts  []extent
	open  int // first transfer of the exchange being built
}

func newBuilder(steps, xfers, exts int) builder {
	return builder{steps: make([]step, 0, steps), xfers: make([]xfer, 0, xfers), exts: make([]extent, 0, exts)}
}

// ext appends extents to the slab and returns them as one list, leaving
// out empty runs.
func (b *builder) ext(es ...extent) []extent {
	lo := len(b.exts)
	for _, e := range es {
		if e.n > 0 {
			b.exts = append(b.exts, e)
		}
	}
	return b.exts[lo:len(b.exts):len(b.exts)]
}

// local appends a copy or spread step moving src to dst.
func (b *builder) local(kind stepKind, dst, src []extent) {
	b.xfers = append(b.xfers, xfer{send: src, recv: dst})
	b.exchange("", 0)
	b.steps[len(b.steps)-1].kind = kind
}

// combine appends the local step dst = dst op src.
func (b *builder) combine(dst, src []extent) {
	b.local(stepCopy, dst, src)
	b.steps[len(b.steps)-1].xfers[0].combine = true
}

// skip sits out rounds, extending a skip the role already ends in.
func (b *builder) skip(rounds int) {
	if last := len(b.steps) - 1; last >= 0 && b.steps[last].kind == stepSkip {
		b.steps[last].n += rounds
	} else if rounds > 0 {
		b.steps = append(b.steps, step{kind: stepSkip, n: rounds})
	}
}

// exchange closes the transfers appended since the last call into one
// exchange step; a rank with nothing to move that round sits it out.
func (b *builder) exchange(phase string, lanes int) {
	if b.open == len(b.xfers) {
		b.skip(1)
		return
	}
	b.steps = append(b.steps, step{kind: stepExchange, phase: phase, n: lanes,
		xfers: b.xfers[b.open:len(b.xfers):len(b.xfers)]})
	b.open = len(b.xfers)
}
