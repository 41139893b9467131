package collective

// Reduction collectives: ReduceScatter and AllReduce, compiled through
// the same Plan machinery as the paper's two operations.
//
// The classic composition allreduce = reduce-scatter + allgather is the
// reduction counterpart of the paper's pair: the reduce-scatter phase
// has exactly the data movement of the index operation (every processor
// holds one block per destination; block (i, j) must reach processor j)
// plus an elementwise combine at the destination, and the allgather
// phase IS the concatenation operation. A compiled reduction plan
// therefore reuses the compiled Bruck-index round structure and the
// circulant-concatenation round structure verbatim and adds exactly one
// new ingredient: a combine kernel the executor applies where a plain
// collective would copy.
//
// Three reduce-scatter schedules are provided:
//
//   - ReduceRing: the partial sum for chunk c travels once around the
//     ring, combining each processor's contribution as it passes.
//     C1 = n-1 rounds, C2 = (n-1)*b bytes — volume-optimal against the
//     send-side bound b(n-1)/k at k = 1, for any n.
//   - ReduceHalving: recursive vector halving; each round exchanges and
//     combines half the remaining chunks with partner me XOR h.
//     C1 = log2 n rounds, C2 = (n-1)*b — round- and volume-optimal at
//     k = 1, but only for power-of-two n.
//   - ReduceBruck: the compiled radix-r Bruck index schedule moves
//     every block to its destination (blocks of different chunks never
//     combine in transit, so the index machinery applies unchanged),
//     and the destination combines its n received blocks locally.
//     C1/C2 are exactly the index algorithm's, so the radix dials the
//     paper's C1/C2 trade-off for reductions too — with k ports this is
//     the only family that goes below log2 n rounds.
//
// AllReduce appends the circulant concatenation (the paper's optimal
// allgather) to any of the three, inside the same engine run.

import (
	"bruck/internal/buffers"
	"bruck/internal/lowerbound"
	"bruck/internal/partition"
)

// ReduceKind selects which reduction operation to compile.
type ReduceKind int

const (
	// ReduceScatterKind: input is index-shaped (n blocks per processor,
	// block (i, j) is rank i's contribution to chunk j); rank i's output
	// is the single combined chunk i.
	ReduceScatterKind ReduceKind = iota
	// AllReduceKind: same input; every rank's output is the full
	// combined vector of n chunks.
	AllReduceKind
)

// Op returns the Spec operation of the kind.
func (k ReduceKind) Op() Op {
	if k == ReduceScatterKind {
		return OpReduceScatter
	}
	return OpAllReduce
}

// ReduceAlgorithm selects the reduce-scatter schedule (and thereby the
// first phase of AllReduce).
type ReduceAlgorithm int

const (
	// ReduceRing (default): n-1 rounds, (n-1)*b volume, any n.
	ReduceRing ReduceAlgorithm = iota
	// ReduceHalving: recursive vector halving, log2 n rounds, (n-1)*b
	// volume, power-of-two n only.
	ReduceHalving
	// ReduceBruck: the radix-r Bruck index schedule with a local combine
	// at the destination; C1/C2 are the index algorithm's.
	ReduceBruck
)

var reduceAlgNames = []string{"ring", "halving", "bruck"}

func (a ReduceAlgorithm) String() string { return nameOf("ReduceAlgorithm", reduceAlgNames, int(a)) }

// ReduceOptions configures a reduction compile.
type ReduceOptions struct {
	// Algorithm selects the reduce-scatter schedule; default ReduceRing.
	Algorithm ReduceAlgorithm
	// Radix is the Bruck radix for ReduceBruck (2 <= r <= n; 0 selects
	// k+1). Ignored by the other algorithms.
	Radix int
	// Kernel combines a received partial into the local accumulator.
	// Required whenever blockLen > 0. A func is not comparable: KernelKey
	// is the kernel's identity in the cache key, and an empty KernelKey
	// never caches.
	Kernel buffers.CombineFunc
	// ElemSize is the kernel's element width for block-size validation;
	// 0 skips the divisibility check (raw byte kernels).
	ElemSize int
	// KernelKey identifies the kernel for plan caching (the built-in
	// kernels use "op/type"). Empty marks an uncacheable user kernel:
	// such configurations compile a fresh plan on every call.
	KernelKey string
	// LastRound is the circulant concatenation's special-range policy
	// for the AllReduce concatenation phase.
	LastRound partition.Policy
}

// KernelOptions returns the ReduceOptions naming a built-in kernel: the
// function, its element size and its plan-cache identity, all static.
// Nothing else spells that triple: a wrong key is a cache collision.
func KernelOptions(op buffers.ReduceOp, t buffers.DataType) (ReduceOptions, error) {
	fn, err := buffers.Kernel(op, t)
	if err != nil {
		return ReduceOptions{}, err
	}
	return ReduceOptions{Kernel: fn, ElemSize: t.Size(), KernelKey: kernelKeys[op][t]}, nil
}

var kernelKeys = [3][4]string{
	{"sum/int32", "sum/int64", "sum/float32", "sum/float64"},
	{"min/int32", "min/int64", "min/float32", "min/float64"},
	{"max/int32", "max/int64", "max/float32", "max/float64"},
}

// compileReduce compiles the reduction s.Op at block size s.BlockLen:
// the reduce-scatter schedule chosen by the algorithm, plus — for
// OpAllReduce — the circulant concatenation of the combined chunks, one
// program run inside one engine run per execution. The plan's Memory
// takes an index-shaped input (block (i, j) = rank i's contribution to
// chunk j) and a concat-shaped output for the reduce-scatter or an
// index-shaped output for the allreduce.
func compileReduce(pl *Plan, n, k int, s Spec) (*program, error) {
	opt, blockLen, all := s.Reduce, s.BlockLen, s.Op == OpAllReduce
	pl.combine = opt.Kernel
	b := newBuilder(2*n+2, n+k, 3*n+4)
	// The combined chunk me lands in the reduce-scatter's only output
	// block, or in block me of the allreduce's: slot 0 of the
	// concatenation's accumulation region.
	chunk := b.ext(blocksAt(regOut, fixed(0), 1))
	if all {
		chunk = b.ext(blocksAt(regOut, plus(0), 1))
	}
	work := b.reduceScatter(n, k, blockLen, opt, chunk)
	switch {
	case !all:
		pl.res.C2LowerBound = lowerbound.ReduceScatterVolume(n, blockLen, k)
		pl.res.C1LowerBound = lowerbound.ReduceScatterRounds(n, k)
	case k >= n-1:
		b.trivial(n, chunk)
	default:
		if err := b.circulant(n, k, blockLen, regOut, opt.LastRound); err != nil {
			return nil, err
		}
	}
	if all {
		pl.res.C2LowerBound = lowerbound.AllReduceVolume(n, blockLen, k)
		pl.res.C1LowerBound = lowerbound.AllReduceRounds(n, k)
	}
	return &program{n: n, k: k, bl: blockLen, roles: []role{{steps: b.steps, scratch: work}}}, nil
}

// reduceScatter appends the reduce-scatter schedule selected by opt:
// the rank's n contribution blocks are its input region, and its
// combined chunk me ends in the extent chunk. It returns the scratch
// the schedule works in. Every schedule applies its combines in a fixed
// order, so repeated executions are bit-identical.
func (b *builder) reduceScatter(n, k, bl int, opt ReduceOptions, chunk []extent) []scratch {
	slot0 := b.ext(blocksAt(regWork, fixed(0), 1))
	switch {
	case opt.Algorithm == ReduceBruck:
		r := defaultRadix(opt.Radix, n, k)
		// The rounds are the Bruck index's, first sends straight from the
		// contribution row, but every receive stays in scratch and Phase 3
		// combines instead of permuting: slot q then holds rank (me-q)'s
		// contribution to chunk me, so the slots fold into the chunk: the
		// rank's own contribution first, then sources me-1, me-2, ...
		b.bruckRounds(n, k, func(int) int { return r }, false, regIn, regWork)
		b.local(stepCopy, chunk, b.ext(slots(regIn, 0, 1)))
		lo := len(b.exts)
		for q := 1; q < n; q++ {
			b.exts = append(b.exts, chunk[0])
		}
		b.combine(b.exts[lo:len(b.exts):len(b.exts)], b.ext(blocksAt(regWork, fixed(1), n-1)))
		return []scratch{{n * bl, bl}}
	case n == 1:
		b.local(stepCopy, chunk, b.ext(blocksAt(regIn, plus(0), 1)))
		return nil
	case opt.Algorithm == ReduceRing:
		// The partial for chunk c starts at rank c+1 with that rank's own
		// contribution and travels the ring once, each rank combining its
		// contribution as the partial passes; the round's receive lands
		// in the one scratch block the send was copied out of.
		b.local(stepCopy, slot0, b.ext(blocksAt(regIn, plus(-1), 1)))
		for t := 1; t < n; t++ {
			b.xfers = append(b.xfers, xfer{to: plus(1), from: plus(-1), send: slot0, recv: slot0})
			b.exchange("", 0)
			b.combine(slot0, b.ext(blocksAt(regIn, plus(-t-1), 1)))
		}
		b.local(stepCopy, chunk, slot0)
		return []scratch{{bl, bl}}
	default:
		// Recursive vector halving in xor order: slot q of the working
		// row holds the partial for chunk me xor q, so every round sends
		// the upper half of what remains to partner me xor half and
		// combines the partner's upper half into the lower; slot 0 ends
		// as the fully combined chunk me.
		b.local(stepSpread, b.ext(blocksAt(regWork, fixed(0), n)), b.ext(blocksAt(regIn, xor(0), n)))
		for half := n / 2; half >= 1; half /= 2 {
			b.xfers = append(b.xfers, xfer{to: xor(half), from: xor(half), combine: true,
				send: b.ext(blocksAt(regWork, fixed(half), half)), recv: b.ext(blocksAt(regWork, fixed(0), half))})
			b.exchange("", 0)
		}
		b.local(stepCopy, chunk, slot0)
		return []scratch{{n * bl, bl}}
	}
}
