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
	"fmt"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
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

func (k ReduceKind) String() string {
	if k == ReduceScatterKind {
		return "reduce-scatter"
	}
	return "allreduce"
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

func (a ReduceAlgorithm) String() string {
	switch a {
	case ReduceRing:
		return "ring"
	case ReduceHalving:
		return "halving"
	case ReduceBruck:
		return "bruck"
	default:
		return fmt.Sprintf("ReduceAlgorithm(%d)", int(a))
	}
}

// ReduceOptions configures a reduction compile.
type ReduceOptions struct {
	// Algorithm selects the reduce-scatter schedule; default ReduceRing.
	Algorithm ReduceAlgorithm
	// Radix is the Bruck radix for ReduceBruck (2 <= r <= n; 0 selects
	// k+1). Ignored by the other algorithms.
	Radix int
	// Kernel combines a received partial into the local accumulator.
	// Required whenever blockLen > 0.
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
	// Segments pipelines the ReduceBruck reduce-scatter phase exactly as
	// IndexOptions.Segments pipelines the index schedule: the blocks
	// split into this many byte spans streaming one merged round apart.
	// 0 and 1 run the monolithic schedule; AutoSegments lets the SP-1
	// cost model pick. Ignored by the ring and halving schedules and by
	// the concatenation phase of AllReduce, which always run monolithic.
	Segments int
}

// checkKernel validates a reduction's kernel against its block size.
func checkKernel(blockLen int, opt ReduceOptions) error {
	if blockLen > 0 && opt.Kernel == nil {
		return fmt.Errorf("collective: reduction requires a combine kernel (set ReduceOptions.Kernel)")
	}
	if opt.ElemSize > 0 && blockLen%opt.ElemSize != 0 {
		return fmt.Errorf("collective: block size %d is not a multiple of the kernel's %d-byte elements", blockLen, opt.ElemSize)
	}
	return nil
}

// CompileReduce compiles the reduction selected by kind for group g on
// engine e at block size blockLen: the reduce-scatter schedule chosen
// by opt.Algorithm, plus — for AllReduceKind — the circulant
// concatenation of the combined chunks, one program run inside one
// engine run per execution. The plan's Execute takes an index-shaped
// input (block (i, j) = rank i's contribution to chunk j) and a
// concat-shaped output for ReduceScatterKind or an index-shaped output
// for AllReduceKind.
func CompileReduce(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, opt ReduceOptions) (*Plan, error) {
	op := opReduceScatter
	if kind == AllReduceKind {
		op = opAllReduce
	}
	return compile(e, g, op, opt.Algorithm.String(), blockLen, func(pl *Plan, n, k int) (*program, error) {
		if err := checkKernel(blockLen, opt); err != nil {
			return nil, err
		}
		pl.combine = opt.Kernel
		b := newBuilder(2*n+2, n+k, 3*n+4)
		// The combined chunk me lands in the output's only block, in slot
		// 0 of the concatenation's accumulation region — or, when the
		// concatenation is the single all-pairs round, in block me.
		allPairs := kind == AllReduceKind && n > 1 && k >= n-1
		chunk := b.ext(blocksAt(regOut, fixed(0), 1))
		if allPairs {
			chunk = b.ext(blocksAt(regOut, plus(0), 1))
		}
		work, segments, err := b.reduceScatter(n, k, blockLen, opt, chunk)
		if err != nil {
			return nil, err
		}
		pl.segments = segments
		switch {
		case kind != AllReduceKind:
			pl.c2lb = lowerbound.ReduceScatterVolume(n, blockLen, k)
			pl.c1lb = lowerbound.ReduceScatterRounds(n, k)
		case allPairs:
			b.trivial(n, chunk)
		default:
			if err := b.circulant(n, k, blockLen, regOut, opt.LastRound); err != nil {
				return nil, err
			}
			b.local(stepRotate, b.ext(blocksAt(regOut, fixed(0), n)), nil)
		}
		if kind == AllReduceKind {
			pl.c2lb = lowerbound.AllReduceVolume(n, blockLen, k)
			pl.c1lb = lowerbound.AllReduceRounds(n, k)
		}
		if pl.segments > 1 {
			// A merged pipelined round multiplexes up to segments compiled
			// rounds over the ports, so the per-round-maximum C2 measure can
			// dip below the monolithic volume bound by up to that factor; see
			// the matching scaling in compileIndex.
			pl.c2lb = intmath.CeilDiv(pl.c2lb, pl.segments)
		}
		return &program{n: n, k: k, bl: blockLen, roles: []role{{steps: b.steps, scratch: work}}}, nil
	})
}

// reduceScatter appends the reduce-scatter schedule selected by opt:
// the rank's n contribution blocks are its input region, and its
// combined chunk me ends in the extent chunk. It returns the scratch
// the schedule works in and the segment count of a pipelined Bruck
// phase. Every schedule applies its combines in a fixed order, so
// repeated executions are bit-identical.
func (b *builder) reduceScatter(n, k, bl int, opt ReduceOptions, chunk []extent) (work []scratch, segments int, err error) {
	slot0 := b.ext(blocksAt(regWork, fixed(0), 1))
	switch {
	case opt.Algorithm > ReduceBruck:
		return nil, 0, fmt.Errorf("collective: unknown reduce algorithm %v", opt.Algorithm)
	case opt.Algorithm == ReduceHalving && !intmath.IsPow(2, n):
		return nil, 0, fmt.Errorf("collective: recursive halving requires a power-of-two group size, got %d", n)
	case opt.Algorithm == ReduceBruck:
		r := opt.Radix
		if r == 0 {
			r = intmath.Min(k+1, n)
		}
		if n > 1 && (r < 2 || r > n) {
			return nil, 0, fmt.Errorf("collective: reduce radix %d out of range [2, %d]", r, n)
		}
		segments = opt.Segments
		if segments == AutoSegments {
			segments = OptimalSegments(costmodel.SP1, n, bl, r, k)
		}
		// Phases 1 and 2 are the Bruck index's — rotate the contribution
		// row into the working region and run the rounds — and Phase 3
		// combines instead of permuting: slot q then holds rank (me-q)'s
		// contribution to chunk me, so the slots fold into the chunk, own
		// contribution first, then sources me-1, me-2, ...
		b.local(stepSpread, b.ext(blocksAt(regWork, fixed(0), n)), b.ext(blocksAt(regIn, plus(0), n)))
		segments = b.bruckRounds(n, k, bl, func(int) int { return r }, false, segments)
		b.local(stepCopy, chunk, slot0)
		lo := len(b.exts)
		for q := 1; q < n; q++ {
			b.exts = append(b.exts, chunk[0])
		}
		b.combine(b.exts[lo:len(b.exts):len(b.exts)], b.ext(blocksAt(regWork, fixed(1), n-1)))
		return []scratch{{n * bl, bl}}, segments, nil
	case n == 1:
		b.local(stepCopy, chunk, b.ext(blocksAt(regIn, plus(0), 1)))
		return nil, 0, nil
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
		return []scratch{{bl, bl}}, 0, nil
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
		return []scratch{{n * bl, bl}}, 0, nil
	}
}

// reduceKey builds the cache key of a reduction plan configuration.
// Option fields the compiled plan ignores are normalized out — the
// radix for non-Bruck schedules, the last-round policy when there is no
// concatenation phase — so equivalent configurations share one cache
// entry instead of fragmenting the bounded cache with identical plans.
func reduceKey(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, opt ReduceOptions) planCacheKey {
	op := opReduceScatter
	if kind == AllReduceKind {
		op = opAllReduce
	}
	radix := opt.Radix
	if opt.Algorithm != ReduceBruck {
		radix = 0
	}
	segments := opt.Segments
	if opt.Algorithm != ReduceBruck {
		segments = 0
	}
	policy := opt.LastRound
	if kind == ReduceScatterKind {
		policy = 0
	}
	//lint:allow planlife Kernel is a func (not comparable) represented by KernelKey; ElemSize only validates block sizes. Empty KernelKey never caches (see ReducePlan).
	return planCacheKey{
		e: e, g: g, op: op, ralg: opt.Algorithm, radix: radix,
		policy: policy, blockLen: blockLen, kernel: opt.KernelKey,
		segments: normSegments(segments),
	}
}

// ReducePlan returns the cached reduction plan for the configuration,
// compiling and caching it on first use. Configurations with an
// anonymous user kernel (empty KernelKey) are compiled fresh on every
// call and never cached — the cache cannot tell two user kernels apart.
func (c *PlanCache) ReducePlan(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, opt ReduceOptions) (*Plan, error) {
	if opt.KernelKey == "" {
		return CompileReduce(e, g, kind, blockLen, opt)
	}
	key := reduceKey(e, g, kind, blockLen, opt)
	if pl, ok := c.plans[key]; ok {
		return pl, nil
	}
	pl, err := CompileReduce(e, g, kind, blockLen, opt)
	if err != nil {
		return nil, err
	}
	c.insert(key, pl)
	return pl, nil
}

// AutoReducePlan compiles candidate reduce-scatter schedules — the
// ring, recursive halving where the group size allows it, and the Bruck
// family at the auto dispatcher's radix candidates — and returns the
// one minimizing the linear-model time C1*Beta + C2*Tau under the
// profile, the Section 3.5 dispatch rule applied to the reduction
// composition (for AllReduceKind every candidate carries the identical
// concatenation phase, so the verdict is decided by the reduce-scatter
// phase). The verdict is memoized per (engine, group, kind, block size,
// kernel, beta, tau), so the steady state of a repeated auto call is a
// single cache lookup.
func (c *PlanCache) AutoReducePlan(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, opt ReduceOptions, p costmodel.Profile) (*Plan, error) {
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	n := g.Size()
	verdict := reduceKey(e, g, kind, blockLen, opt)
	// The dispatcher overrides the caller's algorithm, radix and segment
	// count, so the verdict key normalizes them away entirely.
	verdict.ralg, verdict.radix, verdict.segments = 0, 0, 0
	verdict.radices = fmt.Sprintf("auto:%g:%g", p.Beta, p.Tau)
	cacheable := opt.KernelKey != ""
	if cacheable {
		if pl, ok := c.plans[verdict]; ok {
			return pl, nil
		}
	}
	var best *Plan
	consider := func(o ReduceOptions) error {
		pl, err := c.ReducePlan(e, g, kind, blockLen, o)
		if err != nil {
			return err
		}
		if best == nil || pl.Time(p) < best.Time(p) {
			best = pl
		}
		return nil
	}
	ring, halving, bruck := opt, opt, opt
	ring.Algorithm = ReduceRing
	if err := consider(ring); err != nil {
		return nil, err
	}
	if intmath.IsPow(2, n) && n > 1 {
		halving.Algorithm = ReduceHalving
		if err := consider(halving); err != nil {
			return nil, err
		}
	}
	// The candidates are all monolithic (Segments is forced to 0): a
	// pipelined plan's merged-round C2 measure can dip below the volume
	// bound by multiplexing ports, so comparing it against monolithic
	// candidates under T = C1*Beta + C2*Tau would over-reward it. The
	// segment axis has its own cost-model dispatch — WithSegments
	// (AutoSegments) resolves through OptimalSegments at compile time.
	bruck.Algorithm = ReduceBruck
	bruck.Segments = 0
	for _, r := range candidateRadices(p, n, blockLen, e.Ports()) {
		bruck.Radix = r
		if err := consider(bruck); err != nil {
			return nil, err
		}
	}
	if cacheable {
		c.insert(verdict, best)
	}
	return best, nil
}

// ReduceScatterFlat compiles the reduce-scatter schedule and executes
// it once. Repeated callers should hold a Plan from CompileReduce or go
// through a PlanCache, as the public Machine API does.
func ReduceScatterFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Buffers, opt ReduceOptions) (*Result, error) {
	return runFlat(in, out, func(b int) (*Plan, error) { return CompileReduce(e, g, ReduceScatterKind, b, opt) })
}

// AllReduceFlat compiles the allreduce schedule and executes it once.
func AllReduceFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Buffers, opt ReduceOptions) (*Result, error) {
	return runFlat(in, out, func(b int) (*Plan, error) { return CompileReduce(e, g, AllReduceKind, b, opt) })
}
