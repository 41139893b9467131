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
//     phase tags, link classes or a swap flag that disagree, and a rank
//     that writes a byte it sent by reference before every receiver may
//     have landed it (errRefWrite);
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

// maxCheckViolations bounds a Check report.
const maxCheckViolations = 20

// errRefWrite is the hazard of a by-reference send. A receiver on another
// worker lands what rank r sent by reference in round t after the
// barrier that ends stretch t (rounds.go), while r may already land
// round t+1 and run the local steps that follow it. So the sent bytes
// are pinned from the post of round t until r's first exchange after
// round t+1, and any write to them — a landing, a local step, a swap —
// is this violation. Phrased in rounds, it holds at every worker count
// although the label walk runs at one.
const errRefWrite = "round %d: rank %d writes bytes it sent by reference in round %d, before every receiver may have landed them"

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

// labels is the label medium: each rank's memories as runs of labels —
// its input and output regions, then every scratch region a frame of it
// acquires — and their sizes. add sees each violation; msgs are the
// messages sent, streams their labels — read at the post, or for a
// by-reference send at the land from the pieces refs holds — and tags
// each round's phase. pins are, per rank and round, the pieces it sent
// by reference and may not write yet (errRefWrite).
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
	pins    [][]pins
	tags    map[int]string
}

// pins are the non-empty pieces a rank sent by reference in round t,
// sorted by memory and offset and merged where they touch before a
// write is first held to them; told is the last round whose writes to
// them were reported, plus one, so a round is reported once.
type pins struct {
	t, told int
	ps      []piece
	sorted  bool
}

// hit reports whether the piece p overlaps a pinned one.
func (pn *pins) hit(p piece) bool {
	if !pn.sorted {
		slices.SortFunc(pn.ps, func(a, b piece) int { return cmp.Or(a.mem-b.mem, a.off-b.off) })
		merged := pn.ps[:0]
		for _, q := range pn.ps {
			if l := len(merged) - 1; l >= 0 && merged[l].mem == q.mem && q.off <= merged[l].off+merged[l].n {
				merged[l].n = max(merged[l].n, q.off+q.n-merged[l].off)
				continue
			}
			merged = append(merged, q)
		}
		pn.ps, pn.sorted = merged, true
	}
	lo, hi := 0, len(pn.ps) // the first pinned piece that ends after p starts
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); pn.ps[m].mem < p.mem || pn.ps[m].mem == p.mem && pn.ps[m].off+pn.ps[m].n <= p.off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(pn.ps) && pn.ps[lo].mem == p.mem && pn.ps[lo].off < p.off+p.n
}

// walkLabels runs the round-major driver's walk of pl on the label
// medium, on one worker, every rank's input labelled as its own: add
// (nil: nothing) sees each violation, each (if set) every round
// completed (rounds.run).
// It returns the medium and the round the walk ends in; the medium
// records every fault, so the walk always ends.
func (pl *Plan) walkLabels(add func(string, ...any), each func(lm *labels, done int)) (*labels, int) {
	if add == nil {
		add = func(string, ...any) {}
	}
	n := pl.group.Size()
	lm := &labels{pl: pl, mems: make([][][]lab, n), size: make([][]int, n), phase: make([]string, n), entered: make([]int, n), add: add,
		pins: make([][]pins, n), tags: map[int]string{}}
	for r := range n {
		inSize, outSize := pl.sizes(r)
		lm.mems[r] = [][]lab{{{0, inSize, 0, 1, rankHash(r)}}, nil}
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
	r := f.rank(fixed(f.me))
	f.reg[reg].mem = len(lm.mems[r])
	lm.mems[r], lm.size[r] = append(lm.mems[r], nil), append(lm.size[r], bytes)
}

func (*labels) release(*frame, regID) {}

func (lm *labels) local(f *frame, s *step) {
	r, x := f.rank(fixed(f.me)), &s.xfers[0]
	dst, src := lm.pieces(f, x.recv), lm.pieces(f, x.send)
	switch s.kind {
	case stepCopy:
		stream, total := lm.read(r, src)
		for i, avail := 0, total; i < len(dst); i++ { // the streams end together
			if dst[i].n > avail {
				dst[i].n = avail
			}
			avail -= dst[i].n
		}
		lm.write(r, dst, stream, x.combine)
	case stepSpread:
		for i := range dst {
			if i < len(src) {
				if src[i].n < dst[i].n {
					dst[i].n = src[i].n
				}
				stream, _ := lm.read(r, []piece{{src[i].mem, src[i].off, dst[i].n}})
				lm.write(r, dst[i:i+1], stream, false)
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
// receive: it frees the pieces the rank sent by reference before round
// t-1, and holds the exchange's phase to the round's and each
// transfer's swap flag to its extents. The exchange is the step before
// f.at (cursor.next).
func (lm *labels) enter(f *frame, me, t int) {
	if lm.entered[me] == t+1 {
		return
	}
	lm.entered[me] = t + 1
	lm.pins[me] = slices.DeleteFunc(lm.pins[me], func(pn pins) bool { return pn.t < t-1 })
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
// pieces instead, for the land to read — and lists the message; a
// hierarchical plan's phase moves over one link class.
func (lm *labels) outgoing(f *frame, x *xfer, p *payload, me, to, t int) {
	lm.enter(f, me, t)
	ps := lm.pieces(f, x.send)
	var stream []lab
	var ref []piece
	n := 0
	if f.byRef(x) {
		p.x, ref = x, ps
		if last := len(lm.pins[me]) - 1; last < 0 || lm.pins[me][last].t != t {
			lm.pins[me] = append(lm.pins[me], pins{t: t})
		}
		pn := &lm.pins[me][len(lm.pins[me])-1]
		for _, q := range ps {
			if n += q.n; q.n > 0 {
				pn.ps, pn.sorted = append(pn.ps, q), false
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
	stream := lm.streams[p.msg]
	if p.x != nil {
		stream, _ = lm.read(int(p.src), lm.refs[p.msg])
	}
	lm.write(me, ps, stream, x.combine)
	return nil
}

func (lm *labels) fault(format string, args ...any) error {
	lm.add(format, args...)
	return nil
}

// piece is a byte range of one symbolic memory.
type piece struct{ mem, off, n int }

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
			out = append(out, piece{v.mem, v.base + off, ln})
		}
	}
	return out
}

// read gathers the labels of rank r's pieces as one stream and returns
// its size.
func (lm *labels) read(r int, ps []piece) ([]lab, int) {
	var out []lab
	total := 0
	for _, p := range ps {
		for _, l := range clip(lm.mems[r][p.mem], p.off, p.n) {
			l.off += total
			out = append(out, l)
		}
		total += p.n
	}
	return out, total
}

// write scatters a label stream over rank r's pieces, combining when
// asked; a piece the rank may not write yet is a violation.
func (lm *labels) write(r int, ps []piece, stream []lab, combine bool) {
	pos := 0
	for _, p := range ps {
		for i := range lm.pins[r] {
			if pn := &lm.pins[r][i]; p.n > 0 && pn.hit(p) {
				if now := lm.entered[r]; pn.told != now {
					lm.add(errRefWrite, now-1, r, pn.t)
					pn.told = now
				}
				break
			}
		}
		rs := clip(stream, pos, p.n)
		mem := &lm.mems[r][p.mem]
		if combine {
			var ok bool
			if rs, ok = merge(clip(*mem, p.off, p.n), rs); !ok {
				lm.add("delivery: rank %d combines bytes of different origin or extent", r)
			}
		}
		*mem = put(*mem, p.off, p.n, rs)
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
	if len(got) == 0 {
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
				ok = ok && l.src-l.off == srcOff && l.cnt == cnt && l.who == who
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
