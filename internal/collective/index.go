package collective

import (
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
)

// IndexAlgorithm selects the schedule used by Index.
type IndexAlgorithm int

const (
	// IndexBruck is the radix-r algorithm of Section 3 (the paper's
	// contribution): C1 <= ceil((r-1)/k) * ceil(log_r n) rounds with the
	// C1/C2 trade-off controlled by the radix.
	IndexBruck IndexAlgorithm = iota
	// IndexDirect sends every block straight from source to destination
	// in ceil((n-1)/k) rounds; it is volume-optimal (C2 = b(n-1)/k) and
	// round-maximal, coinciding with the r = n member of the Bruck
	// family.
	IndexDirect
	// IndexPairwiseXOR is the classic hypercube pairwise exchange
	// (partner = rank XOR step); it requires the group size to be a
	// power of two. Its measures match IndexDirect.
	IndexPairwiseXOR
)

var indexAlgNames = []string{"bruck", "direct", "pairwise-xor"}

func (a IndexAlgorithm) String() string { return nameOf("IndexAlgorithm", indexAlgNames, int(a)) }

// IndexOptions configures the index operations of a Spec.
type IndexOptions struct {
	// Algorithm selects the schedule; default IndexBruck.
	Algorithm IndexAlgorithm
	// Radix is the Bruck radix r, 2 <= r <= n. 0 selects k+1, which
	// minimizes the number of rounds (Section 3.3 / 3.4). Ignored by
	// the baselines.
	Radix int
	// NoPack disables message packing: each block selected by a step
	// travels in its own round. This exists only as an ablation of the
	// packing design decision; it multiplies C1 and never helps.
	NoPack bool
	// Segments pipelines the schedule: each block is split into this
	// many byte spans and the spans stream through the round structure
	// one merged round apart, trading C1 = rounds + Segments - 1 merged
	// rounds for per-segment message sizes. 0 and 1 run the monolithic
	// schedule; AutoSegments lets the SP-1 cost model pick. Only the
	// packed uniform Bruck schedule pipelines — the baselines, noPack
	// ablation, mixed-radix and layout (V) plans clamp to monolithic —
	// and the compiler further clamps to the block size.
	Segments int
}

// AutoSegments requests cost-model segment selection: the compiler
// picks the segment count minimizing the SP-1 linear-model time over
// candidate pipelines; see OptimalSegments for explicit per-profile
// tuning.
const AutoSegments = -1

// compileIndex is the one index compiler behind the fixed-size, mixed-
// radix and layout specs: a non-nil s.Radices selects the Bruck schedule
// whose subphase i uses radices[i]; s.Layout, when set, makes the caller
// regions rows of a layout and the block size the padded slot size. The
// Bruck family runs its unchanged rounds on slots padded to the layout's
// largest block (pack at true lengths in, unpack at true lengths out;
// padding travels but is never read), the direct and pairwise-XOR
// exchanges move each block at its exact extent, and zero-length blocks
// still travel as empty messages so every rank walks the same round
// structure. On a uniform layout the program is identical to the
// fixed-size one at the same block size.
func compileIndex(pl *Plan, n, k int, s Spec) (*program, error) {
	opt, lay, blockLen := s.Index, s.Layout, s.BlockLen
	if lay != nil {
		pl.layout, pl.outLayout = lay, lay.Transpose()
	}
	r := defaultRadix(opt.Radix, n, k)
	radixAt := func(int) int { return r }
	segments := opt.Segments
	switch {
	case s.Radices != nil:
		radixAt = func(i int) int { return s.Radices[i] }
	case segments == AutoSegments:
		segments = OptimalSegments(costmodel.SP1, n, blockLen, r, k)
	}
	var pr *program
	if opt.Algorithm == IndexBruck {
		pr, pl.segments = bruckProgram(n, k, blockLen, radixAt, opt.NoPack, segments)
	} else {
		// Block B[me, dst] goes straight to dst and B[src, me] lands
		// straight in the output, ports filled k partners at a time:
		// nothing is packed or staged.
		b := newBuilder(n, n, 2*n)
		peer, back := plus, -1
		if opt.Algorithm == IndexPairwiseXOR {
			peer, back = xor, 1 // the xor partner is its own inverse
		}
		b.local(stepCopy, b.ext(blocksAt(regOut, plus(0), 1)), b.ext(blocksAt(regIn, plus(0), 1)))
		for z := 1; z < n; z++ {
			to, from := peer(z), peer(back*z)
			b.xfers = append(b.xfers, xfer{to: to, from: from,
				send: b.ext(blocksAt(regIn, to, 1)), recv: b.ext(blocksAt(regOut, from, 1))})
			if z%k == 0 || z == n-1 {
				b.exchange("", 0)
			}
		}
		pr = &program{n: n, k: k, bl: blockLen, roles: []role{{steps: b.steps}}}
	}
	pr.inLay, pr.outLay = pl.layout, pl.outLayout
	if lay == nil {
		pl.c2lb = lowerbound.IndexVolume(n, blockLen, k)
	} else {
		pl.c2lb = lowerbound.IndexVVolume(lay.CountsMatrix(), k)
	}
	if lay == nil || lay.Uniform() {
		pl.c1lb = lowerbound.IndexRounds(n, k)
	}
	if pl.segments > 1 {
		// A pipelined schedule multiplexes up to `segments` compiled
		// rounds per port in one merged round, so the one-round-per-port
		// volume bound scales down by the segment count:
		// (n-1)*b <= segments * k * sum of per-step maxima.
		pl.c2lb = intmath.CeilDiv(pl.c2lb, pl.segments)
	}
	return pr, nil
}

// bruckProgram compiles the Bruck-family index schedule for n ranks:
// Phase 1 rotates the input into the working region (slot q holds the
// block for rank me+q), Phase 2 runs the rounds (see bruckRounds, which
// also explains segments and the count returned), Phase 3 writes slot q
// to output block me-q.
func bruckProgram(n, k, bl int, radixAt func(int) int, noPack bool, segments int) (*program, int) {
	b := newBuilder(bruckSizes(n, k, radixAt))
	work := b.ext(blocksAt(regWork, fixed(0), n))
	b.local(stepSpread, work, b.ext(blocksAt(regIn, plus(0), n)))
	segments = b.bruckRounds(n, k, bl, radixAt, noPack, segments)
	b.local(stepSpread, b.ext(extent{reg: regOut, at: plus(0), n: int32(n), rev: true, len: -1}), work)
	return &program{n: n, k: k, bl: bl, roles: []role{{steps: b.steps, scratch: []scratch{{n * bl, bl}}}}}, segments
}

// bruckSizes bounds the steps, transfers and extents of a Bruck round
// table, so the builder allocates each slab once.
func bruckSizes(n, k int, radixAt func(int) int) (steps, xfers, exts int) {
	steps, xfers, exts = 2, 2, 3
	for sub, weight := 0, 1; weight < n; sub++ {
		r := radixAt(sub)
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		steps += intmath.CeilDiv(h-1, k)
		xfers += h - 1
		exts += (h - 1) * intmath.CeilDiv(n, weight*r)
		weight *= r
	}
	return steps, xfers, exts
}

// bruckRounds appends Phase 2 of the Bruck-family index algorithm on
// the n-slot working region: radixAt(i) is the radix of subphase i (a
// constant for the uniform algorithm). Each subphase sends, for every
// digit value z in 1..h-1, the slots whose digit at the subphase's
// weight equals z — runs of `weight` slots every weight*r — to rank
// me+z*weight, and receives the same slots from me-z*weight. Packed
// mode groups k digit values into one round; noPack emits one
// single-block round per selected slot (the paper's packing ablation).
//
// segments > 1 asks for the pipelined form: the blocks split into byte
// spans and merged round t carries span seg of round t-seg for every
// live segment, sharing the ports as lanes of one ownership-transfer
// exchange. The request is clamped to what the table can pipeline — at
// most one span per block byte, and at most minOffsetGap rounds in
// flight so no merged round addresses one partner twice — and requests
// that clamp to 1 (including every noPack or sub-2-round table) stay
// monolithic. The returned count is 0 for a monolithic table.
func (b *builder) bruckRounds(n, k, bl int, radixAt func(int) int, noPack bool, segments int) int {
	first := len(b.steps)
	for sub, weight := 0, 1; weight < n; sub++ {
		r := radixAt(sub)
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		for z := 1; z < h; z++ {
			lo := len(b.exts)
			for base := z * weight; base < n; base += weight * r {
				b.exts = append(b.exts, blocksAt(regWork, fixed(base), intmath.Min(weight, n-base)))
			}
			slots := b.exts[lo:len(b.exts):len(b.exts)]
			to, from := plus(z*weight), plus(-z*weight)
			if !noPack {
				b.xfers = append(b.xfers, xfer{to: to, from: from, send: slots, recv: slots})
				if (z-1)%k == k-1 || z == h-1 {
					b.exchange("bruck", 0)
				}
				continue
			}
			for _, run := range slots {
				for j := 0; j < int(run.n); j++ {
					one := b.ext(blocksAt(regWork, fixed(int(run.at.c)+j), 1))
					b.xfers = append(b.xfers, xfer{to: to, from: from, send: one, recv: one})
					b.exchange("bruck", 0)
				}
			}
		}
		weight *= r
	}
	rounds := b.steps[first:]
	if segments > bl {
		segments = bl
	}
	if gap := minOffsetGap(rounds); segments > gap {
		segments = gap
	}
	if segments <= 1 || noPack || len(rounds) < 2 {
		return 0
	}
	rounds = append([]step(nil), rounds...)
	b.steps = b.steps[:first]
	spans := buffers.SplitSpans(bl, segments)
	for t := 0; t < costmodel.PipelinedC1(len(rounds), segments); t++ {
		lo, hi := intmath.Max(0, t-len(rounds)+1), intmath.Min(t, segments-1)
		for seg := lo; seg <= hi; seg++ {
			for _, x := range rounds[t-seg].xfers {
				cut := b.ext(x.send...)
				for i := range cut {
					cut[i].off, cut[i].len = int32(spans[seg].Off), int32(spans[seg].Len)
				}
				b.xfers = append(b.xfers, xfer{to: x.to, from: x.from, send: cut, recv: cut})
			}
		}
		b.exchange("bruck", hi-lo+1)
	}
	return segments
}

// minOffsetGap returns the largest window size w such that any w
// consecutive rounds of the table have pairwise distinct partner
// offsets — the number of rounds a pipeline may hold in flight in one
// merged round without addressing a partner twice. For the Bruck
// tables the offsets z*weight are globally distinct across the whole
// table (z*weight stays below the subphase's next weight), so this
// returns len(rounds); it is computed rather than assumed as a
// defensive clamp.
func minOffsetGap(rounds []step) int {
	gap := len(rounds)
	for i := range rounds {
		for j := i + 1; j < len(rounds) && j-i < gap; j++ {
			for _, xi := range rounds[i].xfers {
				for _, xj := range rounds[j].xfers {
					if xi.to == xj.to && j-i < gap {
						gap = j - i
					}
				}
			}
		}
	}
	return gap
}
