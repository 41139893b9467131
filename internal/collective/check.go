package collective

// Static plan verification: Plan.Check proves a compiled plan correct
// from its step program alone, without executing it on the engine. It
// runs the program of all n ranks symbolically — every byte of every
// region carries the label of the input bytes it was made from — under
// the interpreter's rules, and reports:
//
//   - k-port violations: more than k (times lanes) sends or receives in
//     a round, a repeated partner, a self-send;
//   - misaligned rounds: a send nobody receives, a receive nobody
//     feeds, sizes that disagree, extents outside their block or
//     region, phase tags, link classes or a swap flag that disagree;
//   - delivery violations: any output byte that does not end up holding
//     exactly what the operation defines (the transposed block, the
//     concatenated block, the combination of all n contributions);
//   - C1/C2 that differ from the plan's stored predictions, or fall
//     below the paper's lower bounds, a phase table that does not tile
//     the rounds or misstates a phase's C2, and a stored Result whose
//     round sizes, message count, bytes or per-level split differ from
//     what the program sends.
//
// Labels are runs of bytes, so the cost is in blocks and extents, not
// in bytes: checking a whole corpus takes milliseconds — cheap enough
// for `bruckctl vet` to gate CI on it.
//
// The same walk carries a second domain, virtual time: under a price per
// message every rank keeps a clock, which Plan.CriticalPath and
// CriticalPathTopo read. Plan.Snapshots draws the labels after each
// round as the paper's figures, and Plan.Messages lists what is sent.

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

// maxCheckViolations bounds a Check report.
const maxCheckViolations = 20

// lab is a run of n symbolic bytes at off: byte i holds the combination
// of byte src+i of the input regions of cnt contributing ranks, whose
// identities sum (hashed) to who.
type lab struct {
	off, n, src, cnt int
	who              uint64
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
func clip(m []lab, off, n int) []lab {
	var out []lab
	for i := after(m, off); i < len(m) && m[i].off < off+n; i++ {
		l := m[i]
		lo, hi := max(l.off, off), min(l.off+l.n, off+n)
		out = append(out, lab{lo - off, hi - lo, l.src + lo - l.off, l.cnt, l.who})
	}
	return out
}

// put replaces [off, off+n) of m by the runs rs (based at 0), in place:
// the runs it overlaps give way to the part of the first before off, rs,
// and the part of the last after off+n.
func put(m []lab, off, n int, rs []lab) []lab {
	i, j := after(m, off), after(m, off+n)
	repl := make([]lab, 0, len(rs)+2)
	if i < len(m) && m[i].off < off {
		head := m[i]
		head.n = off - head.off
		repl = append(repl, head)
	}
	for _, l := range rs {
		l.off += off
		repl = append(repl, l)
	}
	if j < len(m) && m[j].off < off+n {
		tail, cut := m[j], off+n-m[j].off
		tail.off, tail.n, tail.src = off+n, tail.n-cut, tail.src+cut
		repl = append(repl, tail)
		j++
	}
	return slices.Replace(m, i, j, repl...)
}

// merge combines two run lists over the same range bytewise; ok is
// false when they do not cover the same bytes from the same offsets.
func merge(a, b []lab) (out []lab, ok bool) {
	for len(a) > 0 && len(b) > 0 {
		x, y := a[0], b[0]
		if x.off != y.off || x.src != y.src {
			return nil, false
		}
		n := x.n
		if y.n < n {
			n = y.n
		}
		out = append(out, lab{x.off, n, x.src, x.cnt + y.cnt, x.who + y.who})
		if a = a[1:]; x.n > n {
			a = append([]lab{{x.off + n, x.n - n, x.src + n, x.cnt, x.who}}, a...)
		}
		if b = b[1:]; y.n > n {
			b = append([]lab{{y.off + n, y.n - n, y.src + n, y.cnt, y.who}}, b...)
		}
	}
	return out, len(a) == 0 && len(b) == 0
}

// simView places one region of a frame in a rank's symbolic memories.
type simView struct {
	shape
	mem, base int
}

// simFrame is the symbolic counterpart of the interpreter's frame.
type simFrame struct {
	pr      *program
	me      int
	members []int
	reg     [maxRegs]simView
}

func (fr *simFrame) rank(a rel) int {
	r := a.of(fr.me, fr.pr.n, 0)
	if fr.members != nil && r >= 0 && r < len(fr.members) {
		r = fr.members[r]
	}
	return r
}

// simOp is one step of a rank's flattened program: embedded
// sub-programs are inlined, exchanges carry their global round.
type simOp struct {
	s     *step
	fr    *simFrame
	round int
	phase string
}

// simRank is the symbolic state of one rank; clock is its virtual time.
type simRank struct {
	mems  [][]lab
	size  []int
	ops   []simOp
	pc    int
	clock float64
}

type sim struct {
	pl     *Plan
	n      int
	ranks  []simRank
	rounds int
	add    func(string, ...any)
	// price is the time of one message of bytes bytes from processor src
	// to processor dst.
	price func(src, dst, bytes int) float64
}

// newSim starts a walk of pl's program (sim.start) that reports
// violations to add and charges the clocks by price; a nil add drops
// violations, a nil price leaves every clock at zero.
func newSim(pl *Plan, add func(string, ...any), price func(src, dst, bytes int) float64) *sim {
	if add == nil {
		add = func(string, ...any) {}
	}
	if price == nil {
		price = func(int, int, int) float64 { return 0 }
	}
	s := &sim{pl: pl, n: pl.group.Size(), ranks: make([]simRank, pl.group.Size()), add: add, price: price}
	s.rounds = s.start()
	return s
}

// run simulates every round under the engine's k ports and hands each
// round's largest message and phase tag to each (nil: nobody).
func (s *sim) run(each func(t, roundMax int, phase string)) {
	for t := 0; t < s.rounds; t++ {
		roundMax, phase := s.round(t, s.pl.engine.Ports())
		if each != nil {
			each(t, roundMax, phase)
		}
	}
}

// piece is a byte range of one symbolic memory.
type piece struct{ mem, off, n int }

// pieces resolves an extent list of rank r's frame fr, reporting
// extents that leave their block or region.
func (s *sim) pieces(r int, fr *simFrame, exts []extent) []piece {
	var out []piece
	for i := range exts {
		e := &exts[i]
		v := fr.reg[e.reg]
		for b := 0; b < int(e.n); b++ {
			step := b
			if e.rev {
				step = -b
			}
			j, room := e.at.of(fr.me, fr.pr.n, step), s.ranks[r].size[v.mem]-v.base
			if j < 0 || (v.lay == nil && (j+1)*v.stride > room) || (v.lay != nil && j >= v.lay.Cols()) {
				s.add("rank %d: block %d outside region of %d bytes", r, j, room)
				continue
			}
			off, ln := e.bytes(v.shape, fr.me, fr.pr.n, b)
			if _, bn := v.span(j); ln < 0 || int(e.off)+ln > bn {
				s.add("rank %d: extent [%d, %d) outside block of %d bytes", r, e.off, int(e.off)+ln, bn)
				continue
			}
			out = append(out, piece{v.mem, v.base + off, ln})
		}
	}
	return out
}

// read gathers the labels of pieces as one stream and returns its size.
func (s *sim) read(r int, ps []piece) ([]lab, int) {
	var out []lab
	total := 0
	for _, p := range ps {
		for _, l := range clip(s.ranks[r].mems[p.mem], p.off, p.n) {
			l.off += total
			out = append(out, l)
		}
		total += p.n
	}
	return out, total
}

// write scatters a label stream over pieces, combining when asked.
func (s *sim) write(r int, ps []piece, stream []lab, combine bool) {
	pos := 0
	for _, p := range ps {
		rs := clip(stream, pos, p.n)
		mem := &s.ranks[r].mems[p.mem]
		if combine {
			var ok bool
			if rs, ok = merge(clip(*mem, p.off, p.n), rs); !ok {
				s.add("delivery: rank %d combines bytes of different origin or extent", r)
			}
		}
		*mem = put(*mem, p.off, p.n, rs)
		pos += p.n
	}
}

// flatten inlines rank r's role of fr.pr from global round t on and
// returns the round it ends in. Scratch regions become fresh memories.
func (s *sim) flatten(r int, fr *simFrame, t int, phase string) int {
	rk := &s.ranks[r]
	ro := fr.pr.role(fr.me)
	for i, sc := range ro.scratch {
		fr.reg[int(regWork)+i] = simView{shape{stride: sc.stride}, len(rk.mems), 0}
		rk.mems, rk.size = append(rk.mems, nil), append(rk.size, sc.bytes)
	}
	for i := range ro.steps {
		st := &ro.steps[i]
		ph := phase
		if ph == "" {
			ph = st.phase
		}
		switch st.kind {
		case stepExchange:
			rk.ops = append(rk.ops, simOp{st, fr, t, ph})
			t++
		case stepSkip:
			t += st.n
		case stepEmbed:
			sub := &simFrame{pr: st.em.sub, me: st.em.me, members: st.em.members}
			for reg, exts := range [][]extent{regIn: st.xfers[0].send, regOut: st.xfers[0].recv} {
				if ps := s.pieces(r, fr, exts); len(ps) > 0 {
					sub.reg[reg] = simView{shape{stride: sub.pr.bl}, ps[0].mem, ps[0].off}
				}
			}
			t = s.flatten(r, sub, t, ph) + st.n
		default:
			rk.ops = append(rk.ops, simOp{st, fr, -1, ph})
		}
	}
	return t
}

// local runs rank r's local steps up to its next exchange.
func (s *sim) local(r int) {
	rk := &s.ranks[r]
	for ; rk.pc < len(rk.ops) && rk.ops[rk.pc].round < 0; rk.pc++ {
		op := rk.ops[rk.pc]
		x := &op.s.xfers[0]
		dst, src := s.pieces(r, op.fr, x.recv), s.pieces(r, op.fr, x.send)
		switch op.s.kind {
		case stepCopy:
			stream, total := s.read(r, src)
			for i, avail := 0, total; i < len(dst); i++ { // the streams end together
				if dst[i].n > avail {
					dst[i].n = avail
				}
				avail -= dst[i].n
			}
			s.write(r, dst, stream, x.combine)
		case stepSpread:
			for i := range dst {
				if i < len(src) {
					if src[i].n < dst[i].n {
						dst[i].n = src[i].n
					}
					stream, _ := s.read(r, []piece{{src[i].mem, src[i].off, dst[i].n}})
					s.write(r, dst[i:i+1], stream, false)
				}
			}
		}
	}
}

// post is a message in flight within one simulated round, arriving at
// virtual time at.
type post struct {
	src, bytes int
	stream     []lab
	at         float64
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
	// The walk prices every message: count them, and the rounds that
	// send one (busy), as they go.
	var msgs, total int64
	t, last, busy := 0, -1, 0
	s := newSim(pl, add, func(_, _, bytes int) float64 {
		if last < t {
			last, busy = t, busy+1
		}
		msgs, total = msgs+1, total+int64(bytes)
		return 0
	})
	c1, c2 := s.rounds, 0
	maxes, tags := make([]int, c1), make([]string, c1)
	s.run(func(round, roundMax int, phase string) {
		maxes[round], tags[round] = roundMax, phase
		c2 += roundMax
		t = round + 1
	})
	if c1 != pl.c1 {
		add("c1=%d but the program runs %d rounds", pl.c1, c1)
	}
	if c2 != res.C2 {
		add("c2=%d but the program's round maxima sum to %d bytes", res.C2, c2)
	}
	if busy != res.C1 || !slices.Equal(res.RoundSizes, maxes[:last+1]) {
		add("the Result has C1=%d and round sizes %v, the program sends in %d rounds with maxima %v", res.C1, res.RoundSizes, busy, maxes[:last+1])
	}
	if msgs != res.Messages || total != res.TotalBytes {
		add("the Result has %d messages of %d bytes, the program sends %d of %d", res.Messages, res.TotalBytes, msgs, total)
	}
	s.verify()
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
	s := newSim(pl, nil, nil)
	steps := []trace.Step{s.snapshot("before round 0")}
	s.run(func(t, _ int, _ string) {
		steps = append(steps, s.snapshot(fmt.Sprintf("after round %d", t)))
	})
	return steps, nil
}

// CriticalPath prices one execution under p with per-processor clocks,
// the accounting Section 1.2 contrasts with Time's C1*Beta + C2*Tau, on
// the walk Check proves the plan with. In a round a sender pays
// MessageTime of its largest send (its ports run in parallel), a message
// arrives at its sender's round start plus its own MessageTime, and a
// rank leaves the round at the later of the two; the result is the
// latest clock. It equals Time on the paper's symmetric schedules and is
// below it on skewed ones such as folklore.
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

// criticalPath walks the plan with clocks charged by price and returns
// the latest.
func (pl *Plan) criticalPath(price func(src, dst, bytes int) float64) float64 {
	s := newSim(pl, nil, price)
	s.run(nil)
	latest := 0.0
	for _, rk := range s.ranks {
		latest = max(latest, rk.clock)
	}
	return latest
}

// Messages returns every message one execution sends as the engine
// records it (mpsim.Record): round, source and destination processor,
// size, and link class under the engine's topology, sorted by round,
// source and destination — read off the walk Check proves the plan
// with, so a live run records exactly these.
func (pl *Plan) Messages() []mpsim.Event {
	var msgs []mpsim.Event
	t, groupOf := 0, pl.engine.GroupAssignment()
	s := newSim(pl, nil, func(src, dst, bytes int) float64 {
		ev := mpsim.Event{Round: t, Src: src, Dst: dst, Size: bytes}
		if groupOf != nil && groupOf[src] != groupOf[dst] {
			ev.Class = mpsim.ClassInter
		}
		msgs = append(msgs, ev)
		return 0
	})
	s.run(func(round, _ int, _ string) { t = round + 1 })
	slices.SortFunc(msgs, func(a, b mpsim.Event) int { return cmp.Or(a.Round-b.Round, a.Src-b.Src, a.Dst-b.Dst) })
	return msgs
}

// snapshot runs every rank's local steps up to its next exchange and
// draws its regions, each as deep as its most blocks on any rank.
func (s *sim) snapshot(caption string) trace.Step {
	pl, n := s.pl, s.n
	owner, nscratch := make(map[uint64]int, n), 0
	for r := 0; r < n; r++ {
		owner[rankHash(r)] = r
		nscratch = max(nscratch, len(pl.prog.role(r).scratch))
	}
	cells, depth, names := make([][][]trace.Label, n), make([]int, nscratch+2), make([]string, nscratch+2)
	for r := range cells {
		s.local(r)
		cells[r] = make([][]trace.Label, len(depth))
		draw := func(g int, name string, sh shape, mem, blocks int) {
			for j := 0; j < blocks; j++ {
				off, ln := sh.span(j)
				cells[r][g] = append(cells[r][g], s.cell(clip(s.ranks[r].mems[mem], off, ln), ln, owner))
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
func (s *sim) cell(got []lab, ln int, owner map[uint64]int) trace.Label {
	if len(got) == 0 {
		return trace.Empty
	}
	l := got[0]
	if from, ok := owner[l.who]; ok && len(got) == 1 && l.off == 0 && l.n == ln && l.cnt == 1 {
		in, blocks := s.pl.prog.shapeOf(regIn, from), s.pl.blocks(regIn, from)
		j := sort.Search(blocks, func(j int) bool { off, n := in.span(j); return off+n > l.src })
		if off, n := in.span(j); off == l.src && n == ln {
			return trace.Label{Proc: from, Block: j}
		}
	}
	return trace.Mixed
}

// start labels every rank's input region as its own, flattens every
// rank's role and returns the round the longest one ends in.
func (s *sim) start() (rounds int) {
	pl := s.pl
	for r := range s.ranks {
		fr := &simFrame{pr: pl.prog, me: r}
		fr.reg[regIn] = simView{pl.prog.shapeOf(regIn, r), 0, 0}
		fr.reg[regOut] = simView{pl.prog.shapeOf(regOut, r), 1, 0}
		inSize, outSize := pl.sizes(r)
		s.ranks[r].mems = [][]lab{{{0, inSize, 0, 1, rankHash(r)}}, nil}
		s.ranks[r].size = []int{inSize, outSize}
		if t := s.flatten(r, fr, 0, ""); t > rounds {
			rounds = t
		}
	}
	return rounds
}

// exchanging returns rank r's exchange of global round t, after running
// the local steps before it; nil when the rank sits the round out.
func (s *sim) exchanging(r, t int) *simOp {
	s.local(r)
	if rk := &s.ranks[r]; rk.pc < len(rk.ops) && rk.ops[rk.pc].round == t {
		return &rk.ops[rk.pc]
	}
	return nil
}

// round simulates global round t under k ports and returns its largest
// message and its phase tag: first every rank posts its sends, read
// from the state before the round, then every rank lands its receives.
// A rank's clock leaves the round at the later of its costliest send
// and its last arrival, each timed from the sender's round start.
func (s *sim) round(t, k int) (roundMax int, phase string) {
	add, n := s.add, s.n
	inbox := make([][]post, n)
	for r := range s.ranks {
		op := s.exchanging(r, t)
		if op == nil {
			continue
		}
		if phase == "" {
			phase = op.phase
		} else if op.phase != phase {
			add("round %d: rank %d runs phase %q while others run %q", t, r, op.phase, phase)
		}
		ports := k
		if op.s.n > 1 {
			ports *= op.s.n
		}
		var to, from []int
		sent := s.ranks[r].clock
		for i := range op.s.xfers {
			x := &op.s.xfers[i]
			if derived := op.fr.pr.role(op.fr.me).swaps(op.s, x); x.swap != derived {
				add("round %d: rank %d: transfer has swap = %v, its extents say %v (one whole scratch region sent and received)", t, r, x.swap, derived)
			}
			if x.to.mode != addrNone {
				peer := op.fr.rank(x.to)
				to = append(to, peer)
				stream, bytes := s.read(r, s.pieces(r, op.fr, x.send))
				if peer >= 0 && peer < n {
					m := post{r, bytes, stream, s.ranks[r].clock + s.price(s.pl.group.ID(r), s.pl.group.ID(peer), bytes)}
					inbox[peer] = append(inbox[peer], m)
					sent = max(sent, m.at)
				}
				if bytes > roundMax {
					roundMax = bytes
				}
				s.pl.checkClass(op.phase, r, peer, t, add)
			}
			if x.from.mode != addrNone {
				from = append(from, op.fr.rank(x.from))
			}
		}
		s.ranks[r].clock = sent // only now: every send leaves at the round's start
		for _, peers := range [][]int{to, from} {
			if len(peers) > ports {
				add(errPorts, t, r, len(peers), ports)
			}
			for i, p := range peers {
				if p == r || p < 0 || p >= n {
					add(errAddress, t, r, p)
				}
				for _, q := range peers[:i] {
					if p == q {
						add(errTwice, t, r, p)
					}
				}
			}
		}
	}
	for r := range s.ranks {
		op := s.exchanging(r, t)
		if op == nil {
			continue
		}
		s.ranks[r].pc++
		for i := range op.s.xfers {
			x := &op.s.xfers[i]
			if x.from.mode == addrNone {
				continue
			}
			src, ps := op.fr.rank(x.from), s.pieces(r, op.fr, x.recv)
			want := 0
			for _, p := range ps {
				want += p.n
			}
			found := false
			for j, m := range inbox[r] {
				if m.src != src {
					continue
				}
				found = true
				s.ranks[r].clock = max(s.ranks[r].clock, m.at)
				if m.bytes != want {
					add("delivery: round %d: rank %d sends %d bytes to rank %d, which expects %d bytes", t, src, m.bytes, r, want)
				} else {
					s.write(r, ps, m.stream, x.combine)
				}
				inbox[r] = append(inbox[r][:j], inbox[r][j+1:]...)
				break
			}
			if !found {
				add(errUnfed, t, r, src)
			}
		}
	}
	for r, left := range inbox {
		for _, m := range left {
			add(errUnreceived, t, m.src, r)
		}
	}
	return roundMax, phase
}

// verify checks that every output block holds exactly what the
// operation defines (Plan.goal).
func (s *sim) verify() {
	pl, n := s.pl, s.n
	all := uint64(0)
	for r := 0; r < n; r++ {
		all += rankHash(r)
	}
	bad := 0
	for r := 0; r < n && bad < 3; r++ {
		s.local(r)
		out := pl.prog.shapeOf(regOut, r)
		for j := 0; j < pl.blocks(regOut, r) && bad < 3; j++ {
			from, blk, cnt := pl.goal(r, j)
			who := rankHash(from)
			if cnt == n {
				who = all
			}
			off, ln := out.span(j)
			srcOff, _ := pl.prog.shapeOf(regIn, from).span(blk)
			got := clip(s.ranks[r].mems[1], off, ln)
			ok := ln == 0 || (len(got) > 0 && got[0].off == 0)
			for i, l := range got {
				ok = ok && l.src-l.off == srcOff && l.cnt == cnt && l.who == who
				if i+1 < len(got) {
					ok = ok && l.off+l.n == got[i+1].off
				} else {
					ok = ok && l.off+l.n == ln
				}
			}
			if !ok {
				s.add("delivery: rank %d output block %d does not hold its %d bytes of %s", r, j, ln, pl.op)
				bad++
			}
		}
	}
}

// checkClass enforces the level discipline of a hierarchical plan: a
// message of an intra phase stays inside a group, one of an inter phase
// crosses groups.
func (pl *Plan) checkClass(phase string, src, dst, round int, add func(string, ...any)) {
	if pl.topo == nil || dst < 0 || dst >= pl.topo.N() {
		return
	}
	for _, ph := range pl.phases {
		if ph.Name == phase && costmodel.LinkClass(ph.Class) != pl.topo.LinkClass(src, dst) {
			add("round %d: phase %q is %v but rank %d -> %d is an %v link", round, phase,
				costmodel.LinkClass(ph.Class), src, dst, pl.topo.LinkClass(src, dst))
		}
	}
}
