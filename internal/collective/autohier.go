package collective

// Topology-aware auto dispatch: the flat-vs-hierarchical decision. On
// a machine with a nontrivial two-level topology the linear model
// splits per link class, and the question WithAuto answers changes
// from "which radix" to "which shape": a flat schedule finishes in few
// rounds but pays the inter-group profile on every one of them, while
// a hierarchical schedule runs more rounds total yet crosses the slow
// links only in its inter phases. The dispatchers below compile both
// families, price every candidate with Plan.TimeTopo — flat plans at
// the topology's FlatTime (every round priced by the slowest class it
// can touch), hierarchical plans phase by phase at each phase's class
// profile — and memoize the winner under the topology's digest, so
// the steady state of a repeated auto call is one cache lookup.
//
// The pricing uses the topology's per-class profiles exclusively; the
// single profile a caller hands WithAuto is what a flat machine would
// use and carries no per-link information, so it does not participate
// here.

import (
	"fmt"

	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// hierLevels returns the two level sizes radix tuning sees: the
// largest group (the intra problem size) and the group count (the
// inter problem size).
func hierLevels(topo *costmodel.Topology) (maxSize, numGroups int) {
	for _, m := range topo.Groups {
		if m > maxSize {
			maxSize = m
		}
	}
	return maxSize, topo.NumGroups()
}

// autoHierVerdict resolves a memoized verdict lookup: a digest hit
// whose plan is flat is served directly (a flat plan is correct on
// any topology of the group's size), a hierarchical hit is served
// after Topology.Equal confirms the digest, and anything else reports
// a miss.
func (c *PlanCache) autoHierVerdict(key planCacheKey, topo *costmodel.Topology) (*Plan, bool) {
	pl, ok := c.plans[key]
	if !ok {
		return nil, false
	}
	if pl.topo != nil && !pl.topo.Equal(topo) {
		return nil, false
	}
	return pl, true
}

// AutoHierIndexPlan returns the linear-model winner for the index
// operation on a machine with the given topology: the flat Bruck
// family at the candidate radices against the hierarchical schedule at
// candidate per-level radix pairs, each priced by TimeTopo. The
// verdict is memoized per (engine, group, block size, topology
// digest).
func (c *PlanCache) AutoHierIndexPlan(e *mpsim.Engine, g *mpsim.Group, blockLen int, topo *costmodel.Topology) (*Plan, error) {
	if topo == nil {
		return nil, fmt.Errorf("collective: topology-aware auto dispatch requires a topology")
	}
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	verdict := hierKey(e, g, opIndex, blockLen, topo, "autotopo")
	if pl, ok := c.autoHierVerdict(verdict, topo); ok {
		return pl, nil
	}
	var best *Plan
	consider := func(pl *Plan, err error) error {
		if err != nil {
			return err
		}
		if best == nil || pl.TimeTopo(topo) < best.TimeTopo(topo) {
			best = pl
		}
		return nil
	}
	n, k := g.Size(), e.Ports()
	intra, inter := topo.ClassProfile(costmodel.LinkIntra), topo.ClassProfile(costmodel.LinkInter)
	for _, r := range candidateRadices(inter, n, blockLen, k) {
		if err := consider(c.IndexPlan(e, g, blockLen, IndexOptions{Algorithm: IndexBruck, Radix: r})); err != nil {
			return nil, err
		}
	}
	if !topo.Trivial() {
		maxSize, G := hierLevels(topo)
		// The inter level's messages are whole per-group bundles, so its
		// radix tunes against the bundle size, not the block size.
		for _, ri := range candidateRadices(intra, maxSize, blockLen, k) {
			for _, rj := range candidateRadices(inter, G, maxSize*maxSize*blockLen, k) {
				opt := HierOptions{IntraRadix: ri, InterRadix: rj}
				if err := consider(c.HierIndexPlan(e, g, blockLen, topo, opt)); err != nil {
					return nil, err
				}
			}
		}
	}
	c.insert(verdict, best)
	return best, nil
}

// AutoHierConcatPlan is AutoHierIndexPlan for the concatenation. The
// circulant schedule has no radix axis at either level, so the duel is
// directly flat circulant against the hierarchical composition.
func (c *PlanCache) AutoHierConcatPlan(e *mpsim.Engine, g *mpsim.Group, blockLen int, topo *costmodel.Topology, last partition.Policy) (*Plan, error) {
	if topo == nil {
		return nil, fmt.Errorf("collective: topology-aware auto dispatch requires a topology")
	}
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	verdict := hierKey(e, g, opConcat, blockLen, topo, "autotopo")
	if pl, ok := c.autoHierVerdict(verdict, topo); ok {
		return pl, nil
	}
	var best *Plan
	consider := func(pl *Plan, err error) error {
		if err != nil {
			return err
		}
		if best == nil || pl.TimeTopo(topo) < best.TimeTopo(topo) {
			best = pl
		}
		return nil
	}
	if err := consider(c.ConcatPlan(e, g, blockLen, ConcatOptions{Algorithm: ConcatCirculant, LastRound: last})); err != nil {
		return nil, err
	}
	if !topo.Trivial() {
		if err := consider(c.HierConcatPlan(e, g, blockLen, topo, HierOptions{})); err != nil {
			return nil, err
		}
	}
	c.insert(verdict, best)
	return best, nil
}

// AutoHierReducePlan is AutoHierIndexPlan for the reductions: the flat
// candidate set of AutoReducePlan (ring, recursive halving on
// power-of-two groups, Bruck at the candidate radices) against — for
// AllReduceKind, the only kind with a hierarchical schedule — the
// hierarchical reduce/broadcast composition. Configurations with an
// anonymous kernel (empty KernelKey) dispatch fresh on every call and
// are never memoized, as with AutoReducePlan.
func (c *PlanCache) AutoHierReducePlan(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, topo *costmodel.Topology, opt ReduceOptions) (*Plan, error) {
	if topo == nil {
		return nil, fmt.Errorf("collective: topology-aware auto dispatch requires a topology")
	}
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	op := opReduceScatter
	if kind == AllReduceKind {
		op = opAllReduce
	}
	cacheable := opt.KernelKey != ""
	verdict := hierKey(e, g, op, blockLen, topo, "autotopo:"+opt.KernelKey)
	if cacheable {
		if pl, ok := c.autoHierVerdict(verdict, topo); ok {
			return pl, nil
		}
	}
	var best *Plan
	consider := func(pl *Plan, err error) error {
		if err != nil {
			return err
		}
		if best == nil || pl.TimeTopo(topo) < best.TimeTopo(topo) {
			best = pl
		}
		return nil
	}
	n, k := g.Size(), e.Ports()
	inter := topo.ClassProfile(costmodel.LinkInter)
	ring, halving, bruck := opt, opt, opt
	ring.Algorithm = ReduceRing
	if err := consider(c.ReducePlan(e, g, kind, blockLen, ring)); err != nil {
		return nil, err
	}
	if intmath.IsPow(2, n) && n > 1 {
		halving.Algorithm = ReduceHalving
		if err := consider(c.ReducePlan(e, g, kind, blockLen, halving)); err != nil {
			return nil, err
		}
	}
	// Monolithic candidates only, for the same reason as AutoReducePlan:
	// a pipelined plan's merged-round C2 would be over-rewarded here.
	bruck.Algorithm = ReduceBruck
	bruck.Segments = 0
	for _, r := range candidateRadices(inter, n, blockLen, k) {
		bruck.Radix = r
		if err := consider(c.ReducePlan(e, g, kind, blockLen, bruck)); err != nil {
			return nil, err
		}
	}
	if kind == AllReduceKind && !topo.Trivial() {
		if err := consider(c.HierReducePlan(e, g, kind, blockLen, topo, opt)); err != nil {
			return nil, err
		}
	}
	if cacheable {
		c.insert(verdict, best)
	}
	return best, nil
}
