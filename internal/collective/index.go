package collective

import (
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
}

// AutoSegments, as Spec.Segments, requests cost-model segment
// selection: compile picks the segment count minimizing the SP-1
// linear-model time over candidate pipelines; see OptimalSegments for
// explicit per-profile tuning.
const AutoSegments = -1

// compileIndex is the one index compiler behind the fixed-size, mixed-
// radix and layout specs: a non-nil s.Radices selects the Bruck schedule
// whose subphase i uses radices[i]; s.Layout, when set, makes the caller
// regions rows of a layout and the block size the padded slot size. On
// unequal blocks the Bruck family runs padded (bruckProgram; padding
// travels but is never read), the direct and pairwise-XOR exchanges move
// each block at its exact extent, and zero-length blocks still travel as
// empty messages so every rank walks the same rounds. On a uniform
// layout the program is the fixed-size one at that block size.
func compileIndex(pl *Plan, n, k int, s Spec) (*program, error) {
	opt, lay, blockLen := s.Index, s.Layout, s.BlockLen
	if lay != nil {
		pl.layout, pl.outLayout = lay, lay.Transpose()
	}
	r := defaultRadix(opt.Radix, n, k)
	radixAt := func(int) int { return r }
	if s.Radices != nil {
		radixAt = func(i int) int { return s.Radices[i] }
	}
	var pr *program
	if opt.Algorithm == IndexBruck {
		pr = bruckProgram(n, k, blockLen, radixAt, opt.NoPack, lay != nil && !lay.Uniform())
	} else {
		// Block B[me, dst] goes straight to dst and B[src, me] lands
		// straight in the output, ports filled k partners at a time.
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
		pl.res.C2LowerBound = lowerbound.IndexVolume(n, blockLen, k)
	} else {
		pl.res.C2LowerBound = lowerbound.IndexVVolume(lay.CountsMatrix(), k)
	}
	if lay == nil || lay.Uniform() {
		pl.res.C1LowerBound = lowerbound.IndexRounds(n, k)
	}
	return pr, nil
}

// bruckProgram compiles the Bruck-family index schedule for n ranks. The
// paper's rotate-up, rounds and permute phases are one: slot q of the
// rotated order is input block me+q until its first send and output
// block me-q after its last receive, bruckRounds addresses it there, and
// the only local step is slot 0's, which never travels. Scratch holds
// slots between hops, so only a table with a second subphase has any:
// the r = n member is IndexDirect's transfers. padded (a layout plan of
// unequal blocks) runs the rounds on scratch slots packed at true lengths
// and unpacked in rank order: two-phase packing, not a rotation.
func bruckProgram(n, k, bl int, radixAt func(int) int, noPack, padded bool) *program {
	b := newBuilder(bruckSizes(n, k, radixAt, padded))
	var work []scratch
	if padded || (n > 1 && radixAt(0) < n) {
		work = []scratch{{n * bl, bl}}
	}
	if padded {
		all := b.ext(slots(regWork, 0, n))
		b.local(stepSpread, all, b.ext(slots(regIn, 0, n)))
		b.bruckRounds(n, k, radixAt, noPack, regWork, regWork)
		b.local(stepSpread, b.ext(slots(regOut, 0, n)), all)
	} else {
		b.local(stepCopy, b.ext(slots(regOut, 0, 1)), b.ext(slots(regIn, 0, 1)))
		b.bruckRounds(n, k, radixAt, noPack, regIn, regOut)
	}
	return &program{n: n, k: k, bl: bl, roles: []role{{steps: b.steps, scratch: work}}}
}

// slots addresses slots [q, q+cnt) of the rotated order as region reg
// keeps them: input blocks me+q up, output blocks me-q down, scratch q up.
func slots(reg regID, q, cnt int) extent {
	switch reg {
	case regIn:
		return blocksAt(regIn, plus(q), cnt)
	case regOut:
		return extent{reg: regOut, at: plus(-q), n: int32(cnt), rev: true, len: -1}
	}
	return blocksAt(reg, fixed(q), cnt)
}

// bruckSizes sizes the slabs of a packed Bruck program exactly, so the
// builder allocates each once. Every slot but 0 heads one run, at its
// lowest non-zero digit, so a table has n-1 runs: recv lists each, send
// its head and, past subphase 0, the rest of it.
func bruckSizes(n, k int, radixAt func(int) int, padded bool) (steps, xfers, exts int) {
	steps, xfers, exts = 1, 1, 2*n
	if padded {
		steps, xfers, exts = 2, 2, 2*n+1
	}
	if n > 1 {
		exts += intmath.CeilDiv(n, radixAt(0)) - 1
	}
	for sub, weight := 0, 1; weight < n; sub++ {
		r := radixAt(sub)
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		steps += intmath.CeilDiv(h-1, k)
		xfers += h - 1
		weight *= r
	}
	return steps, xfers, exts
}

// bruckRounds appends the rounds of the Bruck-family index algorithm on
// the n slots of the rotated order: radixAt(i) is the radix of subphase
// i (a constant for the uniform algorithm). Each subphase sends, for
// every digit value z in 1..h-1, the slots whose digit at the subphase's
// weight equals z — runs of `weight` slots every weight*r — to rank
// me+z*weight, and receives the same slots from me-z*weight. A slot
// travels exactly where its digit is non-zero, so the head of a run
// (lower digits zero) is still in region in, the first run of a transfer
// (higher digits zero) lands for good in region out, and the rest sit in
// scratch. Packed mode groups k digit values into one round; noPack
// emits one single-block round per slot (the paper's packing ablation).
// The offsets z*weight are distinct across the table (each stays below
// the next weight), so the rounds may share ports as lanes (pipeline).
func (b *builder) bruckRounds(n, k int, radixAt func(int) int, noPack bool, in, out regID) {
	for sub, weight := 0, 1; weight < n; sub++ {
		r := radixAt(sub)
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		grain := weight // slots an extent may span: a whole run, or one under noPack
		if noPack {
			grain = 1
		}
		for z := 1; z < h; z++ {
			list := func(recv bool) []extent {
				lo := len(b.exts)
				for base := z * weight; base < n; base += weight * r {
					for q := base; q < intmath.Min(base+weight, n); q += grain {
						switch cnt := intmath.Min(grain, n-q); {
						case recv && base < weight*r:
							b.ext(slots(out, q, cnt))
						case !recv && q == base:
							b.ext(slots(in, q, 1), slots(regWork, q+1, cnt-1))
						default:
							b.ext(slots(regWork, q, cnt))
						}
					}
				}
				return b.exts[lo:len(b.exts):len(b.exts)]
			}
			send, recv := list(false), list(true)
			to, from := plus(z*weight), plus(-z*weight)
			if !noPack {
				b.xfers = append(b.xfers, xfer{to: to, from: from, send: send, recv: recv})
				if (z-1)%k == k-1 || z == h-1 {
					b.exchange("bruck", 0)
				}
				continue
			}
			for i := range send {
				b.xfers = append(b.xfers, xfer{to: to, from: from, send: send[i : i+1], recv: recv[i : i+1]})
				b.exchange("bruck", 0)
			}
		}
		weight *= r
	}
}
