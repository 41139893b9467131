package collective

import (
	"fmt"

	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/partition"
)

// ConcatAlgorithm selects the schedule used by Concat.
type ConcatAlgorithm int

const (
	// ConcatCirculant is the circulant-graph algorithm of Section 4
	// (the paper's contribution): optimal C1 = ceil(log_{k+1} n) and
	// optimal C2 = ceil(b(n-1)/k) outside the special range, with the
	// last round scheduled by the table partition of Proposition 4.2.
	ConcatCirculant ConcatAlgorithm = iota
	// ConcatFolklore gathers the n blocks to processor 0 along a
	// binomial tree and broadcasts the concatenation back along the
	// same tree: 2*ceil(log2 n) rounds (one-port).
	ConcatFolklore
	// ConcatRing circulates blocks around a ring in n-1 rounds
	// (one-port); volume-optimal, round-maximal.
	ConcatRing
	// ConcatRecursiveDoubling is the hypercube exchange (partner = rank
	// XOR 2^i); requires a power-of-two group size (one-port). Optimal
	// in both measures for that case, like the circulant algorithm.
	ConcatRecursiveDoubling
)

var concatAlgNames = []string{"circulant", "folklore", "ring", "recursive-doubling"}

func (a ConcatAlgorithm) String() string { return nameOf("ConcatAlgorithm", concatAlgNames, int(a)) }

// ConcatOptions configures the concatenations of a Spec.
type ConcatOptions struct {
	// Algorithm selects the schedule; default ConcatCirculant.
	Algorithm ConcatAlgorithm
	// LastRound selects the policy for the circulant algorithm's last
	// round in the special range where optimal C1 and C2 cannot be
	// achieved together (Proposition 4.2); default PreferOptimal.
	LastRound partition.Policy
}

// compileConcat is the one concatenation compiler behind the fixed-size
// and layout specs; s.Layout, when set, makes the input an n x 1 and the
// output an n x n layout, and the block size the padded slot size: the
// circulant algorithm runs on padded slots (two-phase packing), its
// single all-pairs round at k >= n-1 and the ring baseline move exact
// block sizes. For the circulant algorithm this solves the last-round
// table partition and resolves the per-area communication offsets once.
func compileConcat(pl *Plan, n, k int, s Spec) (*program, error) {
	lay, blockLen := s.Layout, s.BlockLen
	if lay != nil {
		outLayout, err := lay.ConcatOut()
		if err != nil {
			return nil, err
		}
		pl.layout, pl.outLayout = lay, outLayout
	}
	var pr *program
	switch s.Concat.Algorithm {
	case ConcatCirculant:
		var err error
		if pr, err = circulantProgram(n, k, blockLen, s.Concat.LastRound, lay != nil); err != nil {
			return nil, err
		}
	case ConcatRing:
		pr = ringProgram(n, k, blockLen)
	case ConcatRecursiveDoubling:
		pr = recursiveDoublingProgram(n, k, blockLen)
	default:
		pr = folkloreProgram(n, k, blockLen)
	}
	pr.inLay, pr.outLay = pl.layout, pl.outLayout
	if lay == nil {
		pl.res.C2LowerBound = lowerbound.ConcatVolume(n, blockLen, k)
	} else {
		pl.res.C2LowerBound = lowerbound.ConcatVVolume(lay.CountsVector(), k)
	}
	if blockLen > 0 && (lay == nil || lay.Uniform()) {
		// The dissemination bound assumes there is data to disseminate;
		// a zero-byte concatenation compiles without its last rounds and
		// legitimately finishes in fewer.
		pl.res.C1LowerBound = lowerbound.ConcatRounds(n, k)
	}
	return pr, nil
}

// circulantProgram compiles the circulant concatenation: the single
// all-pairs round when k >= n-1, which lands every block straight in
// its output block; otherwise the doubling and last rounds on an
// accumulation region whose slot q gathers the block of rank me+q. On
// fixed-size blocks that region is the output itself, slot q being its
// block me+q, so the rounds finish it; padded (layout plans) it is a
// pooled region of slots — the two-phase packing: the same rounds run
// on padded slots and the unpack at true lengths puts them in rank order.
func circulantProgram(n, k, bl int, policy partition.Policy, padded bool) (*program, error) {
	b := newBuilder(n+2, n+k, 2*n+4)
	own := b.ext(blocksAt(regIn, fixed(0), 1))
	acc, slot0, ro := regOut, plus(0), role{}
	if padded && k < n-1 {
		acc, slot0, ro.scratch = regWork, fixed(0), []scratch{{n * bl, bl}}
	}
	b.local(stepCopy, b.ext(blocksAt(acc, slot0, 1)), own)
	if k >= n-1 {
		b.trivial(n, own)
	} else if err := b.circulant(n, k, bl, acc, policy); err != nil {
		return nil, err
	}
	if acc == regWork {
		b.local(stepSpread, b.ext(blocksAt(regOut, plus(0), n)), b.ext(blocksAt(regWork, fixed(0), n)))
	}
	ro.steps = b.steps
	return shared(n, k, bl, ro), nil
}

// ringProgram compiles the ring baseline: round q forwards the block
// received in round q-1 to the predecessor and receives the next one
// from the successor, each straight out of and into its output block.
func ringProgram(n, k, bl int) *program {
	b := newBuilder(n, n, 2*n)
	b.local(stepCopy, b.ext(blocksAt(regOut, plus(0), 1)), b.ext(blocksAt(regIn, fixed(0), 1)))
	for q := 1; q < n; q++ {
		b.xfers = append(b.xfers, xfer{to: plus(-1), from: plus(1),
			send: b.ext(blocksAt(regOut, plus(q-1), 1)), recv: b.ext(blocksAt(regOut, plus(q), 1))})
		b.exchange("", 0)
	}
	return shared(n, k, bl, role{steps: b.steps})
}

// recursiveDoublingProgram compiles the hypercube exchange for
// power-of-two n as the doubling phase in xor order, accumulated in the
// output like the circulant's: block me xor q is slot q, so round i sends
// slots [0, 2^i) to partner me xor 2^i and receives its [2^i, 2^(i+1)).
func recursiveDoublingProgram(n, k, bl int) *program {
	b := newBuilder(n, n, 2*n)
	b.local(stepCopy, b.ext(blocksAt(regOut, xor(0), 1)), b.ext(blocksAt(regIn, fixed(0), 1)))
	for bit := 1; bit < n; bit <<= 1 {
		b.xfers = append(b.xfers, xfer{to: xor(bit), from: xor(bit),
			send: b.ext(blocksAt(regOut, xor(0), bit)), recv: b.ext(blocksAt(regOut, xor(bit), bit))})
		b.exchange("", 0)
	}
	return shared(n, k, bl, role{steps: b.steps})
}

// trivial appends the single all-pairs round of a concatenation with
// k >= n-1 ports: own goes to every other rank, and rank me+q's block
// lands straight in output block me+q.
func (b *builder) trivial(n int, own []extent) {
	for q := 1; q < n; q++ {
		b.xfers = append(b.xfers, xfer{to: plus(-q), from: plus(q), send: own, recv: b.ext(blocksAt(regOut, plus(q), 1))})
	}
	if n > 1 {
		b.exchange("trivial", 0)
	}
}

// circulant appends the rounds of the circulant concatenation (Section
// 4) on the n-slot accumulation region acc, whose slot 0 holds the
// rank's own block and whose slot q gathers the block of rank me+q: the
// doubling rounds send the first count slots to the k ranks me-t*count
// and receive the same shapes into slots t*count onward; the
// byte-granular last rounds move the areas of the solved table
// partition, each at a distinct communication offset o (a cell of slot
// n1+col travels from the sender's slot n1+col-o).
func (b *builder) circulant(n, k, bl int, acc regID, policy partition.Policy) error {
	if n == 1 {
		return nil
	}
	slot, count := fixed, 1
	if acc == regOut {
		slot = plus // slot q of the output is its block me+q: nothing is left to rotate
	}
	for round := 1; round < intmath.CeilLog(k+1, n); round++ {
		for t := 1; t <= k; t++ {
			b.xfers = append(b.xfers, xfer{to: plus(-t * count), from: plus(t * count),
				send: b.ext(blocksAt(acc, slot(0), count)), recv: b.ext(blocksAt(acc, slot(t*count), count))})
		}
		b.exchange("doubling", 0)
		count *= k + 1
	}
	n1 := count
	part, err := partition.Solve(bl, n-n1, n1, k, policy)
	if err != nil {
		return err
	}
	if err := part.Validate(); err != nil {
		return err
	}
	for _, areas := range part.Rounds {
		offsets, err := assignAreaOffsets(areas, n1)
		if err != nil {
			return err
		}
		for ai, area := range areas {
			cells := func(shift int) []extent {
				lo := len(b.exts)
				for _, run := range area.Runs {
					b.exts = append(b.exts, spanAt(acc, slot(n1+run.Col-shift), run.Row0, run.NRows))
				}
				return b.exts[lo:len(b.exts):len(b.exts)]
			}
			o := offsets[ai]
			b.xfers = append(b.xfers, xfer{to: plus(-o), from: plus(o), send: cells(o), recv: cells(0)})
		}
		b.exchange("last", 0)
	}
	return nil
}

// assignAreaOffsets chooses a distinct communication offset for every
// area of one round. Area t may legally use any offset in
// [Right_t + 1, n1 + Left_t]; the paper's choice n1 + Left_t can
// collide when several areas share a column, so offsets are assigned
// greedily from the rightmost area down.
func assignAreaOffsets(areas []partition.Area, n1 int) ([]int, error) {
	offsets := make([]int, len(areas))
	next := int(^uint(0) >> 1) // +inf
	for t := len(areas) - 1; t >= 0; t-- {
		o := intmath.Min(n1+areas[t].Left, next-1)
		if o < areas[t].Right()+1 {
			return nil, fmt.Errorf("collective: cannot assign distinct offset to area %d (range [%d,%d], next %d)",
				t, areas[t].Right()+1, n1+areas[t].Left, next)
		}
		offsets[t] = o
		next = o
	}
	return offsets, nil
}
