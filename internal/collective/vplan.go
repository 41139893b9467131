package collective

// Ragged-layout collectives: IndexV (MPI_Alltoallv) and ConcatV
// (MPI_Allgatherv), the variable-block-size generalizations of the
// paper's two operations.
//
// The paper's schedules are fixed functions of (n, k, r): every block
// travels through intermediate processors on a route that never depends
// on the payload. That is exactly what makes them reusable for ragged
// layouts via two-phase local packing, the technique production MPI
// libraries use to run the Bruck algorithm under Alltoallv on small
// messages: each processor packs its variable-size blocks into uniform
// slots of the layout's largest block (padding is transferred but never
// read), the unchanged fixed-size schedule runs on the padded slots,
// and the destination unpacks each block at its true length — the
// layout is global knowledge compiled into the plan, so every receiver
// knows every true length. Algorithms whose blocks travel directly
// between source and destination (direct exchange, pairwise-XOR, ring)
// need no padding at all: their compiled plans carry per-transfer byte
// extents straight from the layout.
//
// The trade-off is the auto dispatcher's reason to exist: padding makes
// the log-round schedules pay C2 proportional to the largest block,
// while the direct schedules pay many rounds but move only true bytes.
// Which side wins depends on the layout's skew and the machine's
// beta/tau ratio, and the linear cost model T = C1*beta + C2*tau
// decides it per layout from the compiled candidates' exact (C1, C2).

import (
	"fmt"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// CompileIndexV compiles the index schedule selected by opt for group g
// at the given layout: an n x n table whose Count(i, j) is the number
// of bytes group rank i holds for rank j. The Bruck family runs its
// unchanged rounds on slots padded to the layout's largest block (pack
// at true lengths in, unpack at true lengths out; padding travels but
// is never read), the direct and pairwise-XOR exchanges move each block
// at its exact extent, and zero-length blocks still travel as empty
// messages so every rank walks the same round structure. On a uniform
// layout the compiled program is identical to CompileIndex's at the
// same block size, so uniform IndexV executions match IndexFlat exactly
// in both results and Reports. Layout plans always run monolithic:
// opt.Segments is ignored.
func CompileIndexV(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, opt IndexOptions) (*Plan, error) {
	if l == nil {
		return nil, fmt.Errorf("collective: nil layout")
	}
	return compileIndex(e, g, l.Max(), opt, false, nil, l)
}

// CompileIndexVMixed compiles the mixed-radix index schedule for a
// layout: subphase i uses radices[i], on padded slots exactly as
// CompileIndexV.
func CompileIndexVMixed(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, radices []int) (*Plan, error) {
	if l == nil {
		return nil, fmt.Errorf("collective: nil layout")
	}
	return compileIndex(e, g, l.Max(), IndexOptions{}, true, radices, l)
}

// CompileConcatV compiles the concatenation schedule selected by opt
// for group g at the given layout: an n x 1 table whose Count(i, 0) is
// group rank i's contribution. The circulant algorithm runs on padded
// slots (two-phase packing); its single all-pairs round at k >= n-1 and
// the ring baseline move exact block sizes. The folklore and
// recursive-doubling baselines have no V variant. On a uniform layout
// the compiled schedule is identical to CompileConcat's at the same
// block size.
func CompileConcatV(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, opt ConcatOptions) (*Plan, error) {
	if l == nil {
		return nil, fmt.Errorf("collective: nil layout")
	}
	return compileConcat(e, g, l.Max(), opt, l)
}

// IndexVFlat compiles the layout schedule and executes it once on
// ragged slabs: in's layout is the plan's layout, out's must be its
// transpose. Repeated callers should hold a Plan from CompileIndexV (or
// go through a PlanCache, as the public Machine API does).
func IndexVFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Ragged, opt IndexOptions) (*Result, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("collective: nil ragged buffer")
	}
	pl, err := CompileIndexV(e, g, in.Layout(), opt)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteV(in, out)
}

// ConcatVFlat compiles the layout concatenation and executes it once;
// in is a concat-shaped ragged slab (n x 1) and out its n x n
// concatenation shape (Layout.ConcatOut).
func ConcatVFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Ragged, opt ConcatOptions) (*Result, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("collective: nil ragged buffer")
	}
	pl, err := CompileConcatV(e, g, in.Layout(), opt)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteV(in, out)
}

// AutoIndexVPlan compiles candidate index schedules for the layout and
// returns the one minimizing the linear-model time C1*Beta + C2*Tau
// under the profile — the cost-model dispatch rule of Section 3.5
// generalized to ragged layouts. Candidates are the Bruck family at
// radices 2 (round-minimal), k+1, the closed-form optimum for the
// padded slot size, and n, plus the padding-free direct exchange; all
// go through the cache, so the sweep compiles each candidate at most
// once per layout.
func (c *PlanCache) AutoIndexVPlan(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, p costmodel.Profile) (*Plan, error) {
	if l == nil {
		return nil, fmt.Errorf("collective: nil layout")
	}
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	n := g.Size()
	// The verdict itself is memoized under a profile-tagged key, so the
	// steady state of a repeated auto call is a single cache lookup
	// rather than a candidate sweep.
	verdict := autoKey(e, g, opIndex, l, p)
	if pl, ok := c.plans[verdict]; ok && pl.layout.Equal(l) {
		return pl, nil
	}
	var best *Plan
	consider := func(pl *Plan, err error) error {
		if err != nil {
			return err
		}
		if best == nil || pl.Time(p) < best.Time(p) {
			best = pl
		}
		return nil
	}
	// The direct exchange is considered first so that an exact model tie
	// — common on layouts whose largest extent dominates every round,
	// where padded r=n Bruck and direct coincide — resolves to the
	// padding-free zero-copy schedule.
	if n > 1 {
		if err := consider(c.IndexVPlan(e, g, l, IndexOptions{Algorithm: IndexDirect})); err != nil {
			return nil, err
		}
	}
	for _, r := range candidateRadices(p, n, l.Max(), e.Ports()) {
		if err := consider(c.IndexVPlan(e, g, l, IndexOptions{Algorithm: IndexBruck, Radix: r})); err != nil {
			return nil, err
		}
	}
	c.insert(verdict, best)
	return best, nil
}

// autoKey builds the cache key memoizing an auto-dispatch verdict for
// one (engine, group, op, layout, profile) configuration. The profile
// enters through its parameters, not its name: two profiles with equal
// Beta and Tau rank every candidate identically.
func autoKey(e *mpsim.Engine, g *mpsim.Group, op planOp, l *blocks.Layout, p costmodel.Profile) planCacheKey {
	return planCacheKey{
		e: e, g: g, op: op,
		radices: fmt.Sprintf("auto:%g:%g", p.Beta, p.Tau),
		v:       true, layout: l.Digest(),
	}
}

// AutoConcatVPlan is AutoIndexVPlan for the concatenation: the padded
// circulant schedule (optimal rounds, padded volume) against the
// padding-free ring (maximal rounds, exact extents), judged by the
// linear model. Under the paper's round-max C2 measure the ring's every
// round still carries the layout's largest block somewhere, so the
// circulant usually wins on both axes and the ring only takes over at
// the margins (e.g. special-range C2 penalties under extreme
// bandwidth-bound profiles); the dispatcher simply reports the model's
// verdict.
func (c *PlanCache) AutoConcatVPlan(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, p costmodel.Profile, policy partition.Policy) (*Plan, error) {
	if l == nil {
		return nil, fmt.Errorf("collective: nil layout")
	}
	verdict := autoKey(e, g, opConcat, l, p)
	verdict.policy = policy
	if pl, ok := c.plans[verdict]; ok && pl.layout.Equal(l) {
		return pl, nil
	}
	circ, err := c.ConcatVPlan(e, g, l, ConcatOptions{Algorithm: ConcatCirculant, LastRound: policy})
	if err != nil {
		return nil, err
	}
	ring, err := c.ConcatVPlan(e, g, l, ConcatOptions{Algorithm: ConcatRing})
	if err != nil {
		return nil, err
	}
	best := circ
	if ring.Time(p) < circ.Time(p) {
		best = ring
	}
	c.insert(verdict, best)
	return best, nil
}

// candidateRadices returns the deduplicated, clamped radix candidate
// set of the auto dispatcher.
func candidateRadices(p costmodel.Profile, n, slot, k int) []int {
	if n <= 2 {
		return []int{2}
	}
	cands := []int{2, k + 1, OptimalRadix(p, n, slot, k, false), n}
	var out []int
	for _, r := range cands {
		if r < 2 {
			r = 2
		}
		if r > n {
			r = n
		}
		dup := false
		for _, prev := range out {
			if prev == r {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

// The cached entry points below mirror the fixed-size set on PlanCache:
// the public Machine API routes IndexV/ConcatV and their Flat variants
// through them, so repeated layouts transparently reuse their compiled
// plans under layout-digest keys.

// IndexVFlat is the cached counterpart of the package-level IndexVFlat.
func (c *PlanCache) IndexVFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Ragged, opt IndexOptions) (*Result, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("collective: nil ragged buffer")
	}
	pl, err := c.IndexVPlan(e, g, in.Layout(), opt)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteV(in, out)
}

// ConcatVFlat is the cached counterpart of the package-level
// ConcatVFlat.
func (c *PlanCache) ConcatVFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Ragged, opt ConcatOptions) (*Result, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("collective: nil ragged buffer")
	}
	pl, err := c.ConcatVPlan(e, g, in.Layout(), opt)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteV(in, out)
}
