package collective

import (
	"fmt"

	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// Two-level hierarchical schedules.
//
// A hierarchical plan runs one collective over a machine partitioned
// into node-groups (costmodel.Topology): each group's first member acts
// as its leader, the operation decomposes into a fixed sequence of
// phases, and every phase moves data over exactly one link class —
// intra-group phases reuse the paper's flat schedules inside each group
// concurrently, inter-group phases run a flat schedule over the leaders
// only. Because phases never mix link classes, the per-class C1/C2
// split is known exactly at compile time, which is what the
// topology-priced model T = sum over classes of C1c*beta_c + C2c*tau_c
// needs. On machines where inter links are much slower than intra links
// (clusters of multiprocessors, the paper's Section 6 setting) the
// funneling trades extra intra traffic for far fewer and smaller
// inter-link rounds.
//
// All phases are strictly ordered on the shared round counter: at the
// end of each phase every group member skips to the phase's global
// round count, so the engine's uniformity check holds and the measured
// per-class metrics match the compiled phase table exactly — every
// phase round carries at least one message (some largest group is
// active), so a phase's round count is exactly its C1 contribution.
//
// Groups occupy contiguous runs of group ranks (topology group a owns
// ranks start[a] .. start[a]+sizes[a]-1), which lets the intra-group
// sub-schedules run directly on contiguous slices of the caller's
// buffers with no repacking.

// HierOptions configures a hierarchical index or concatenation
// compile: the Bruck radix used inside each group and the radix of the
// leader-level schedule. Zero selects min(k+1, level size) — the
// round-minimal choice — per level; nonzero values are clamped to the
// level's valid range [2, level size].
type HierOptions struct {
	IntraRadix int
	InterRadix int
}

// hierRadix resolves a requested radix for a level of size n under k
// ports: 0 means the round-minimal min(k+1, n), anything else clamps
// into [2, n]. Levels of size <= 1 have no schedule and no radix.
func hierRadix(r, n, k int) int {
	if n <= 1 {
		return 0
	}
	if r == 0 {
		return intmath.Min(k+1, n)
	}
	if r < 2 {
		r = 2
	}
	if r > n {
		r = n
	}
	return r
}

// levels is the two-level structure the three hierarchical compilers
// share: the contiguous group runs of a validated topology. Group a
// owns group ranks start[a] .. start[a]+sizes[a]-1 and its first rank
// is its leader.
type levels struct {
	n, k, b      int
	start, sizes []int
	members      [][]int // group -> the group ranks of its run
	maxSize      int
	fan          int // rounds of a leader<->members star phase: the largest group's
	cross        int // rounds of a first-leader<->leaders star phase
}

// roleFunc fills the builder of member j of group a (group rank
// start[a]+j) and returns that rank's scratch.
type roleFunc func(a, j int, b *builder) []scratch

// hierLevels returns the two level sizes radix tuning sees: the
// largest group (the intra problem size) and the group count (the
// inter problem size).
func hierLevels(topo *costmodel.Topology) (maxSize, numGroups int) {
	for _, m := range topo.Groups {
		maxSize = intmath.Max(maxSize, m)
	}
	return maxSize, topo.NumGroups()
}

// compileHier is the shared front of the hierarchical compilers: it
// validates the topology against the group, has the operation's
// compiler build the level's sub-programs and return its phases and
// role builder, and runs that for every rank. The roles become one
// program whose declared phases the counter prices per link class.
func compileHier(pl *Plan, n, k int, s Spec) (*program, error) {
	topo := s.Topology
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if topo.N() != n {
		return nil, fmt.Errorf("collective: topology covers %d processors but the group has %d", topo.N(), n)
	}
	pl.topo = topo
	h := &levels{n: n, k: k, b: s.BlockLen}
	rank := 0
	for _, m := range topo.Groups {
		h.start, h.sizes = append(h.start, rank), append(h.sizes, m)
		h.maxSize = intmath.Max(h.maxSize, m)
		run := make([]int, m)
		for i := range run {
			run[i] = rank + i
		}
		h.members = append(h.members, run)
		rank += m
	}
	h.fan = intmath.CeilDiv(h.maxSize-1, k)
	h.cross = intmath.CeilDiv(len(h.sizes)-1, k)
	var phases []PlanPhase
	var fill roleFunc
	var err error
	switch s.Op {
	case OpIndex:
		phases, fill = compileHierIndex(pl, h, s.Hier)
	case OpConcat:
		phases, fill, err = compileHierConcat(pl, h)
	default:
		pl.combine = s.Reduce.Kernel
		phases, fill = compileHierAllReduce(pl, h)
	}
	if err != nil {
		return nil, err
	}
	pr := &program{n: n, k: k, bl: s.BlockLen, roles: make([]role, n), phases: phases}
	for a, m := range h.sizes {
		for j := 0; j < m; j++ {
			b := newBuilder(8+m, m+1, 4*n)
			work := fill(a, j, &b)
			pr.roles[h.start[a]+j] = role{steps: b.steps, scratch: work}
		}
	}
	pl.intraC1LB = lowerbound.HierIntraRounds(h.sizes, k)
	pl.interC1LB = lowerbound.HierInterRounds(len(h.sizes), k)
	return pr, nil
}

// flank addresses the blocks of an n-block region that lie outside
// group a's run: the two spans on either side of it.
func (h *levels) flank(b *builder, reg regID, a int) []extent {
	end := h.start[a] + h.sizes[a]
	return b.ext(blocksAt(reg, fixed(0), h.start[a]), blocksAt(reg, fixed(end), h.n-end))
}

// subPrograms compiles one flat sub-program per distinct level size and
// returns them by size with the deepest one's round count — the length
// of the phase they share.
func subPrograms(sizes []int, compile func(m int) (*program, error)) (subs map[int]*program, rounds int, err error) {
	subs = make(map[int]*program)
	for _, m := range sizes {
		if subs[m] == nil {
			if subs[m], err = compile(m); err != nil {
				return nil, 0, err
			}
			subs[m].finish()
			rounds = intmath.Max(rounds, subs[m].c1)
		}
	}
	return subs, rounds, nil
}

// embed appends a sub-program run on the frame members (this rank is
// its rank me), with in and out as its regions, padded to the rounds of
// the phase it shares with deeper sub-programs.
func (b *builder) embed(phase string, sub *program, members []int, me int, in, out []extent, rounds int) {
	b.xfers = append(b.xfers, xfer{send: in, recv: out})
	b.exchange(phase, rounds-sub.c1)
	last := &b.steps[len(b.steps)-1]
	last.kind, last.em = stepEmbed, &embed{sub, members, me}
}

// star appends rank j's part of a star phase of rounds rounds among m
// ranks: the hub (j = 0) moves one transfer withSpoke(i) per spoke, k
// spokes a round in spoke order; spoke j moves its one transfer withHub
// in round (j-1)/k; everyone sits out the rest of the phase.
func (b *builder) star(phase string, rounds, k, m, j int, withSpoke func(i int) xfer, withHub xfer) {
	if j > 0 {
		b.skip((j - 1) / k)
		b.xfers = append(b.xfers, withHub)
		b.exchange(phase, 0)
		b.skip(rounds - (j-1)/k - 1)
		return
	}
	for i := 1; i < m; i++ {
		b.xfers = append(b.xfers, withSpoke(i))
		if i%k == 0 || i == m-1 {
			b.exchange(phase, 0)
		}
	}
	b.skip(rounds - intmath.CeilDiv(m-1, k))
}

// compileHierIndex compiles the two-level index (all-to-all) schedule:
//
//  1. intra-alltoall — every group runs the flat Bruck index over its
//     own contiguous run of blocks, all groups concurrently;
//  2. gather — each member hands the (n-m)-block row destined outside
//     its group to the leader, which files it straight into the
//     per-group bundles;
//  3. inter-alltoall — the leaders run the flat Bruck index over
//     per-group bundles padded to maxSize^2 blocks;
//  4. scatter — each leader picks every member's inbound remote row out
//     of the received bundles and hands it back.
//
// The result is byte-identical to the flat index on the same input.
func compileHierIndex(pl *Plan, h *levels, opt HierOptions) ([]PlanPhase, roleFunc) {
	phases := []PlanPhase{{Name: "intra-alltoall", Class: mpsim.ClassIntra}, {Name: "gather", Class: mpsim.ClassIntra},
		{Name: "inter-alltoall", Class: mpsim.ClassInter}, {Name: "scatter", Class: mpsim.ClassIntra}}
	G, bl := len(h.sizes), h.b
	pl.c2lb, pl.c1lb = lowerbound.IndexVolume(h.n, bl, h.k), lowerbound.IndexRounds(h.n, h.k)
	pl.intraC2LB = lowerbound.HierIndexIntraVolume(h.sizes, bl, h.k)
	pl.interC2LB = lowerbound.HierIndexInterVolume(h.sizes, h.n, bl, h.k)
	// The bundle group a sends to group c holds one block per (member
	// of a, member of c) pair; padding every bundle to maxSize^2
	// blocks keeps the leader-level schedule uniform.
	B := h.maxSize * h.maxSize * bl
	radix := func(r, n int) func(int) int { return func(int) int { return hierRadix(r, n, h.k) } }
	intra, intraRounds, _ := subPrograms(h.sizes, func(m int) (*program, error) {
		sub, _ := bruckProgram(m, h.k, bl, radix(opt.IntraRadix, m), false, 0, false)
		return sub, nil
	})
	inter, _ := bruckProgram(G, h.k, B, radix(opt.InterRadix, G), false, 0, false)
	inter.finish()
	return phases, func(a, j int, b *builder) []scratch {
		m, start := h.sizes[a], h.start[a]
		run := func(reg regID) []extent { return b.ext(blocksAt(reg, fixed(start), m)) }
		b.embed("intra-alltoall", intra[m], h.members[a], j, run(regIn), run(regOut), intraRounds)
		if G == 1 {
			return nil // no remote data: the funnelling phases are empty
		}
		if j > 0 {
			b.star("gather", h.fan, h.k, m, j, nil, xfer{to: fixed(start), send: h.flank(b, regIn, a)})
			b.skip(inter.c1)
			b.star("scatter", h.fan, h.k, m, j, nil, xfer{from: fixed(start), recv: h.flank(b, regOut, a)})
			return nil
		}
		// cells addresses, bundle by bundle, the places of member i of
		// this group: in the outgoing bundles (regWork) its row's mc
		// blocks for group c sit together; in the incoming ones
		// (regWork+1) the block from member i' of group c sits at slot
		// i'*m+i.
		cells := func(reg regID, i int) []extent {
			lo := len(b.exts)
			for c, mc := range h.sizes {
				switch {
				case c == a:
				case reg == regWork:
					b.exts = append(b.exts, spanAt(reg, fixed(c), i*mc*bl, mc*bl))
				default:
					for src := 0; src < mc; src++ {
						b.exts = append(b.exts, spanAt(reg, fixed(c), (src*m+i)*bl, bl))
					}
				}
			}
			return b.exts[lo:len(b.exts):len(b.exts)]
		}
		b.local(stepCopy, cells(regWork, 0), h.flank(b, regIn, a))
		b.star("gather", h.fan, h.k, m, 0, func(i int) xfer { return xfer{from: fixed(start + i), recv: cells(regWork, i)} }, xfer{})
		all := func(reg regID) []extent { return b.ext(blocksAt(reg, fixed(0), G)) }
		b.embed("inter-alltoall", inter, h.start, a, all(regWork), all(regWork+1), inter.c1)
		b.local(stepCopy, h.flank(b, regOut, a), cells(regWork+1, 0))
		b.star("scatter", h.fan, h.k, m, 0, func(i int) xfer { return xfer{to: fixed(start + i), send: cells(regWork+1, i)} }, xfer{})
		return []scratch{{G * B, B}, {G * B, B}}
	}
}

// compileHierConcat compiles the two-level concatenation (allgather)
// schedule:
//
//  1. intra-allgather — every group runs the circulant concatenation
//     over its contiguous run of the output, all groups concurrently;
//  2. inter-allgather — the leaders run the circulant concatenation
//     over per-group bundles padded to maxSize blocks;
//  3. broadcast — each leader hands the blocks originating outside the
//     group to its members (one packed row, sent to k members per
//     round).
//
// The result is byte-identical to the flat concatenation.
func compileHierConcat(pl *Plan, h *levels) ([]PlanPhase, roleFunc, error) {
	phases := []PlanPhase{{Name: "intra-allgather", Class: mpsim.ClassIntra},
		{Name: "inter-allgather", Class: mpsim.ClassInter}, {Name: "broadcast", Class: mpsim.ClassIntra}}
	G, bl := len(h.sizes), h.b
	pl.c2lb = lowerbound.ConcatVolume(h.n, bl, h.k)
	if bl > 0 {
		// As in compileConcat: no dissemination bound on zero-byte data.
		pl.c1lb = lowerbound.ConcatRounds(h.n, h.k)
	}
	pl.intraC2LB = lowerbound.HierConcatIntraVolume(h.sizes, bl, h.k)
	pl.interC2LB = lowerbound.HierConcatInterVolume(h.sizes, h.n, bl, h.k)
	B := h.maxSize * bl
	intra, intraRounds, err := subPrograms(h.sizes, func(m int) (*program, error) {
		return circulantProgram(m, h.k, bl, partition.PreferOptimal, false)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("collective: intra-group schedule: %w", err)
	}
	inter, err := circulantProgram(G, h.k, B, partition.PreferOptimal, false)
	if err != nil {
		return nil, nil, fmt.Errorf("collective: leader-level schedule: %w", err)
	}
	inter.finish()
	return phases, func(a, j int, b *builder) []scratch {
		m, start := h.sizes[a], h.start[a]
		run := b.ext(blocksAt(regOut, fixed(start), m))
		b.embed("intra-allgather", intra[m], h.members[a], j, b.ext(blocksAt(regIn, fixed(0), 1)), run, intraRounds)
		if G == 1 {
			return nil
		}
		if j > 0 {
			b.skip(inter.c1)
			b.star("broadcast", h.fan, h.k, m, j, nil, xfer{from: fixed(start), recv: h.flank(b, regOut, a)})
			return nil
		}
		// The leader pads its group's run into a bundle, gathers all
		// bundles, files every other group's run into the output, and
		// packs the remote blocks once into the row it hands out.
		b.local(stepCopy, b.ext(spanAt(regWork, fixed(0), 0, m*bl)), run)
		b.embed("inter-allgather", inter, h.start, a, b.ext(blocksAt(regWork, fixed(0), 1)), b.ext(blocksAt(regWork+1, fixed(0), G)), inter.c1)
		lo := len(b.exts)
		for c, mc := range h.sizes {
			if c != a {
				b.exts = append(b.exts, spanAt(regWork+1, fixed(c), 0, mc*bl))
			}
		}
		b.local(stepCopy, h.flank(b, regOut, a), b.exts[lo:len(b.exts):len(b.exts)])
		row := b.ext(blocksAt(regWork+2, fixed(0), 1))
		b.local(stepCopy, row, h.flank(b, regOut, a))
		b.star("broadcast", h.fan, h.k, m, 0, func(i int) xfer { return xfer{to: fixed(start + i), send: row} }, xfer{})
		return []scratch{{B, B}, {G * B, B}, {(h.n - m) * bl, (h.n - m) * bl}}
	}, nil
}

// compileHierAllReduce compiles the two-level allreduce: a star reduction inside each group (members
// funnel full vectors to the leader, which folds them in ascending
// member order), a star reduction of the group accumulators onto the
// first leader, and the two symmetric broadcast phases back out:
//
//  1. reduce          (intra)  2. inter-reduce    (inter)
//  3. inter-broadcast (inter)  4. broadcast       (intra)
//
// Every message is the full n*blockLen vector. Only the allreduce has a
// two-level decomposition here — a hierarchical reduce-scatter would
// need a different redistribution phase — and the fixed fold order
// (ascending member, then ascending group) makes the result
// byte-identical to the flat schedules only for kernels that are exact
// and commutative on their element type, such as the integer-sum
// kernels; floating-point kernels may round differently.
func compileHierAllReduce(pl *Plan, h *levels) ([]PlanPhase, roleFunc) {
	phases := []PlanPhase{{Name: "reduce", Class: mpsim.ClassIntra}, {Name: "inter-reduce", Class: mpsim.ClassInter},
		{Name: "inter-broadcast", Class: mpsim.ClassInter}, {Name: "broadcast", Class: mpsim.ClassIntra}}
	pl.c2lb, pl.c1lb = lowerbound.AllReduceVolume(h.n, h.b, h.k), lowerbound.AllReduceRounds(h.n, h.k)
	pl.intraC2LB = lowerbound.HierAllReduceIntraVolume(h.sizes, h.n, h.b, h.k)
	pl.interC2LB = lowerbound.HierAllReduceInterVolume(len(h.sizes), h.n, h.b, h.k)
	return phases, func(a, j int, b *builder) []scratch {
		G, m, start := len(h.sizes), h.sizes[a], h.start[a]
		mine, acc := b.ext(blocksAt(regIn, fixed(0), h.n)), b.ext(blocksAt(regOut, fixed(0), h.n))
		b.local(stepCopy, acc, mine)
		b.star("reduce", h.fan, h.k, m, j, func(i int) xfer { return xfer{from: fixed(start + i), recv: acc, combine: true} },
			xfer{to: fixed(start), send: mine})
		if j > 0 {
			b.skip(2 * h.cross)
		} else {
			b.star("inter-reduce", h.cross, h.k, G, a, func(c int) xfer { return xfer{from: fixed(h.start[c]), recv: acc, combine: true} },
				xfer{to: fixed(0), send: acc})
			b.star("inter-broadcast", h.cross, h.k, G, a, func(c int) xfer { return xfer{to: fixed(h.start[c]), send: acc} },
				xfer{from: fixed(0), recv: acc})
		}
		b.star("broadcast", h.fan, h.k, m, j, func(i int) xfer { return xfer{to: fixed(start + i), send: acc} },
			xfer{from: fixed(start), recv: acc})
		return nil
	}
}

// Hierarchical reports whether the plan is a compiled two-level
// schedule.
func (pl *Plan) Hierarchical() bool { return pl.topo != nil }

// Topology returns the topology a hierarchical plan was compiled for,
// nil for flat plans.
func (pl *Plan) Topology() *costmodel.Topology { return pl.topo }

// PlanPhase describes one phase of a hierarchical plan: a contiguous
// run of rounds moving data over a single link class.
type PlanPhase struct {
	Name   string
	Class  int // mpsim.ClassIntra or mpsim.ClassInter
	First  int // first global round of the phase
	Rounds int // rounds the phase occupies (== its C1 contribution)
	C2     int // data volume of the phase, in bytes
}

// Phases returns the phase table of a hierarchical plan in execution
// order, nil for flat plans. Every phase round carries at least one
// message, so a phase's Rounds is exactly its C1 contribution, and
// phases never mix link classes, so the per-class splits sum to the
// plan's Rounds() and PredictedC2().
func (pl *Plan) Phases() []PlanPhase { return append([]PlanPhase(nil), pl.phases...) }

// PredictedClassC1 returns the compiled round count of one link class
// of a hierarchical plan. Flat plans return 0 — their rounds have no
// compiled class.
func (pl *Plan) PredictedClassC1(class int) int {
	c1 := 0
	for _, ph := range pl.phases {
		if ph.Class == class {
			c1 += ph.Rounds
		}
	}
	return c1
}

// PredictedClassC2 is PredictedClassC1 for the data volume.
func (pl *Plan) PredictedClassC2(class int) int {
	c2 := 0
	for _, ph := range pl.phases {
		if ph.Class == class {
			c2 += ph.C2
		}
	}
	return c2
}

// TimeTopo returns the topology-priced linear-model estimate of one
// execution: hierarchical plans price each phase under its link class's
// profile, flat plans price their whole schedule under FlatTime (the
// conservative worst-link profile). This is the quantity the
// topology-aware auto dispatcher minimizes. t must be non-nil.
func (pl *Plan) TimeTopo(t *costmodel.Topology) float64 {
	if pl.topo == nil {
		return t.FlatTime(pl.c1, pl.c2)
	}
	total := 0.0
	for _, ph := range pl.phases {
		total += t.ClassProfile(costmodel.LinkClass(ph.Class)).Time(ph.Rounds, ph.C2)
	}
	return total
}
