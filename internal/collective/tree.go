package collective

import (
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
)

// The (k+1)-nomial tree of Section 2's dissemination argument, and the
// one-to-all primitives and the folklore concatenation that run on it.
// The tree rooted at group rank root spans the virtual ranks
// v = (rank - root) mod n: v > 0 is a child of v with its lowest nonzero
// radix-(k+1) digit cleared, and if that digit is at position pos its
// subtree is the virtual ranks [v, v + (k+1)^pos) below n. A position is
// active in one round, so a traversal takes ceil(log_{k+1} n) rounds;
// for k = 1 this is the classic binomial tree.

// tree appends the rounds of the tree rooted at group rank root as
// group rank me runs them — leaves to root when up (positions
// ascending), root to leaves otherwise — and returns the size of me's
// subtree. seg names the memory of virtual ranks [u, u+cnt) on this
// rank; what crosses the edge between a rank and its parent is the
// rank's whole subtree.
func (b *builder) tree(n, k, root, me int, up bool, seg func(u, cnt int) []extent) (held int) {
	v := intmath.Mod(me-root, n)
	link := func(u int, recv bool, exts []extent) {
		x := xfer{to: fixed(intmath.Mod(root+u, n)), send: exts}
		if recv {
			x = xfer{from: x.to, recv: exts}
		}
		b.xfers = append(b.xfers, x)
	}
	held = n
	d := intmath.CeilLog(k+1, n)
	for i := 0; i < d; i++ {
		pos := i
		if !up {
			pos = d - 1 - i
		}
		base := intmath.Pow(k+1, pos)
		switch {
		case v%((k+1)*base) == 0:
			// Every digit up to this position is zero: the ranks that
			// differ from v in this digit alone are v's children.
			for t := 1; t <= k && v+t*base < n; t++ {
				child := v + t*base
				link(child, up, seg(child, intmath.Min(base, n-child)))
			}
		case v%base == 0:
			// The lowest nonzero digit is at this position: the one round
			// v talks to its parent.
			held = intmath.Min(base, n-v)
			link(v-v/base%(k+1)*base, !up, seg(v, held))
		}
		b.exchange("", 0)
	}
	return held
}

// ring returns blocks [lo, lo+cnt) mod n of an n-block region in rank
// order: one run, or two where the run wraps.
func (b *builder) ring(reg regID, lo, cnt, n int) []extent {
	first := intmath.Min(cnt, n-lo)
	return b.ext(blocksAt(reg, fixed(lo), first), blocksAt(reg, fixed(0), cnt-first))
}

// folkloreProgram compiles the two-phase folklore algorithm of Section
// 4: gather the n blocks to rank 0 up the tree, then broadcast the
// concatenation back down it. A rank's part depends on its place in the
// tree, so every rank gets its own role; all of them gather straight
// into the output region.
func folkloreProgram(n, k, bl int) *program {
	pr := &program{n: n, k: k, bl: bl, roles: make([]role, n)}
	d := intmath.CeilLog(k+1, n)
	for me := range pr.roles {
		b := newBuilder(2*d+1, 2*d+k, 2*d+k+2)
		b.local(stepCopy, b.ext(blocksAt(regOut, fixed(me), 1)), b.ext(blocksAt(regIn, fixed(0), 1)))
		b.tree(n, k, 0, me, true, func(u, cnt int) []extent { return b.ext(blocksAt(regOut, fixed(u), cnt)) })
		whole := b.ext(blocksAt(regOut, fixed(0), n))
		b.tree(n, k, 0, me, false, func(int, int) []extent { return whole })
		pr.roles[me] = role{steps: b.steps}
	}
	return pr
}

// compileRooted compiles the one-to-all primitives, each one traversal
// of the tree rooted at s.Root. The side only the root has — the
// broadcast's data, the gather's output, the scatter's input — is a
// region of the root's role alone, addressed in group-rank order, so no
// rank reorders anything. A non-root moves its subtree's blocks through
// pooled scratch, in tree order from its own block on.
func compileRooted(pl *Plan, n, k int, s Spec) *program {
	pl.root = s.Root
	pl.c1lb = lowerbound.ConcatRounds(n, k)
	// The port argument of Proposition 2.2: the root of a gather or a
	// scatter moves the other n-1 blocks through its k ports, a receiver
	// of a broadcast the one block (the two-processor case).
	pl.c2lb = lowerbound.ConcatVolume(n, s.BlockLen, k)
	if s.Op == OpBroadcast {
		pl.c2lb = lowerbound.ConcatVolume(intmath.Min(n, 2), s.BlockLen, k)
	}
	pr := &program{n: n, k: k, bl: s.BlockLen, roles: make([]role, n)}
	d := intmath.CeilLog(k+1, n)
	for me := range pr.roles {
		b := newBuilder(d+1, d+k, d+k+3)
		in, out := b.ext(blocksAt(regIn, fixed(0), 1)), b.ext(blocksAt(regOut, fixed(0), 1))
		if s.Op == OpBroadcast {
			if me == s.Root {
				b.local(stepCopy, out, in)
			}
			b.tree(n, k, s.Root, me, false, func(int, int) []extent { return out })
			pr.roles[me] = role{steps: b.steps}
			continue
		}
		// acc holds the blocks of the rank's subtree. On the root it is the
		// root-only region itself, where the block of virtual rank u is
		// block root+u; elsewhere it is scratch, where it is block u-v.
		v := intmath.Mod(me-s.Root, n)
		acc, shift := regWork, -v
		if me == s.Root {
			acc, shift = regOut, s.Root
			if s.Op == OpScatter {
				acc = regIn
			}
		}
		seg := func(u, cnt int) []extent { return b.ring(acc, intmath.Mod(u+shift, n), cnt, n) }
		var held int
		if s.Op == OpGather {
			b.local(stepCopy, seg(v, 1), in)
			held = b.tree(n, k, s.Root, me, true, seg)
		} else {
			held = b.tree(n, k, s.Root, me, false, seg)
			b.local(stepCopy, out, seg(v, 1))
		}
		pr.roles[me] = role{steps: b.steps}
		if me != s.Root {
			pr.roles[me].scratch = []scratch{{held * s.BlockLen, s.BlockLen}}
		}
	}
	return pr
}
