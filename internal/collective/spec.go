package collective

import (
	"fmt"
	"slices"

	"bruck/internal/blocks"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// Op names the operation a Spec compiles.
type Op int

const (
	OpIndex Op = iota
	OpConcat
	OpReduceScatter
	OpAllReduce
	// OpIndexV and OpConcatV are the index and the concatenation on a
	// blocks.Layout (MPI_Alltoallv / MPI_Allgatherv).
	OpIndexV
	OpConcatV
	// OpBroadcast, OpGather and OpScatter are the one-to-all primitives
	// (MPI_Bcast / MPI_Gather / MPI_Scatter) rooted at Spec.Root.
	OpBroadcast
	OpGather
	OpScatter
)

// opNames is indexed by Op; the layout operations print as the
// operation they generalize.
var opNames = [...]string{"index", "concat", "reduce-scatter", "allreduce", "index", "concat", "broadcast", "gather", "scatter"}

func (o Op) String() string { return nameOf("Op", opNames[:], int(o)) }

// nameOf is the String method of the four name tables.
func nameOf(typ string, names []string, v int) string {
	if v < 0 || v >= len(names) {
		return fmt.Sprintf("%s(%d)", typ, v)
	}
	return names[v]
}

// aliases are the spellings the tools accept beside the printed ones.
var aliases = map[string]string{
	"reducescatter": "reduce-scatter", "xor": "pairwise-xor", "recdbl": "recursive-doubling", "hier": "hierarchical",
}

// ParseSpec is the inverse of the name tables: the Spec naming
// operation op (a layout operation is its fixed-size namesake plus a
// Layout) and algorithm alg — "" for the default, a name the operation's
// algorithm type prints, or what Plan.Algorithm prints without one:
// "hierarchical" sets Hierarchical, a rooted operation's is "tree".
func ParseSpec(op, alg string) (Spec, error) {
	if a, ok := aliases[op]; ok {
		op = a
	}
	if a, ok := aliases[alg]; ok {
		alg = a
	}
	s := Spec{Op: Op(slices.Index(opNames[:], op))}
	if s.Op < 0 {
		return Spec{}, fmt.Errorf("collective: unknown operation %q", op)
	}
	a := 0
	switch {
	case alg == "":
	case alg == "hierarchical":
		s.Hierarchical = true
	case s.Op.rooted():
		a = slices.Index([]string{"tree"}, alg)
	case s.Op.reduction():
		a = slices.Index(reduceAlgNames, alg)
		s.Reduce.Algorithm = ReduceAlgorithm(a)
	case s.Op == OpConcat:
		a = slices.Index(concatAlgNames, alg)
		s.Concat.Algorithm = ConcatAlgorithm(a)
	default:
		a = slices.Index(indexAlgNames, alg)
		s.Index.Algorithm = IndexAlgorithm(a)
	}
	if a < 0 {
		return Spec{}, fmt.Errorf("collective: unknown %v algorithm %q", s.Op, alg)
	}
	return s, nil
}

func (o Op) layout() bool    { return o == OpIndexV || o == OpConcatV }
func (o Op) reduction() bool { return o == OpReduceScatter || o == OpAllReduce }
func (o Op) rooted() bool    { return o >= OpBroadcast && o <= OpScatter }

// A Spec names one compiled schedule on an (engine, group) pair: the
// paper's schedules are fixed functions of a small tuple, and this is
// the tuple. Compile compiles it, PlanCache.Get memoizes it; there is
// no other way to obtain a Plan.
//
// Only the fields the selected schedule family reads matter; the rest
// are ignored (and canonicalized away, so equal schedules share one
// cache entry). The family is selected in this order: a one-to-all
// primitive reads BlockLen and Root and nothing else; a layout
// operation ignores Hierarchical and Topology; Hierarchical forces the
// two-level schedule and ignores Auto; Auto dispatches by cost model —
// priced by the topology's per-class profiles under a nontrivial
// Topology, by the profile itself otherwise, where it governs the
// layout operations and the reductions only; anything else is the one
// schedule the operation's options name.
type Spec struct {
	Op Op
	// BlockLen is the block size in bytes of a fixed-size operation;
	// Layout is the block table of OpIndexV (n x n) or OpConcatV (n x 1).
	BlockLen int
	Layout   *blocks.Layout
	// Root is the group rank the one-to-all primitives are rooted at.
	Root int
	// Index and Radices configure the index operations; a non-nil
	// Radices selects the mixed-radix schedule and overrides Index.
	Index   IndexOptions
	Radices []int
	// Concat configures the concatenations, Reduce the reductions.
	Concat ConcatOptions
	Reduce ReduceOptions
	// Segments pipelines a packed uniform Bruck index or ReduceBruck
	// over that many byte spans of every block (pipeline): 0 and 1 are
	// monolithic, AutoSegments lets the SP-1 cost model pick.
	Segments int
	// Hierarchical selects the two-level schedule under Topology; Hier
	// sets its per-level radices (index only).
	Hierarchical bool
	Hier         HierOptions
	Topology     *costmodel.Topology
	// Auto, when set, lets the linear cost model pick the schedule.
	Auto *costmodel.Profile
}

// topoPriced is the canonical Auto of a topology-priced dispatch: the
// candidates are priced by the topology's own per-class profiles, so
// the caller's profile carries no information there.
var topoPriced costmodel.Profile

// canonicalize validates the spec against (e, g) — every rejection
// that needs only the spec is made here, once, whichever route asked —
// and zeroes every field the selected family ignores. For a layout
// operation BlockLen becomes the padded slot size.
func (s *Spec) canonicalize(e *mpsim.Engine, g *mpsim.Group) error {
	if err := checkGroup(e, g); err != nil {
		return err
	}
	n, k := g.Size(), e.Ports()
	switch {
	case s.Op < OpIndex || s.Op > OpScatter:
		return fmt.Errorf("collective: unknown operation %v", s.Op)
	case s.Op.layout() && s.Layout == nil:
		return fmt.Errorf("collective: nil layout")
	case s.Op.layout():
		cols := n
		if s.Op == OpConcatV {
			cols = 1
		}
		if s.Layout.Rows() != n || s.Layout.Cols() != cols {
			return fmt.Errorf("collective: %v layout is %dx%d, group needs %dx%d", s.Op, s.Layout.Rows(), s.Layout.Cols(), n, cols)
		}
		s.BlockLen, s.Hierarchical, s.Topology = s.Layout.Max(), false, nil
	case s.BlockLen < 0:
		return fmt.Errorf("collective: negative block size %d", s.BlockLen)
	case s.Op.rooted():
		if s.Root < 0 || s.Root >= n {
			return fmt.Errorf("collective: %v root %d out of range [0,%d)", s.Op, s.Root, n)
		}
		*s = Spec{Op: s.Op, BlockLen: s.BlockLen, Root: s.Root}
		return nil
	default:
		s.Layout = nil
	}
	s.Root = 0
	if s.Auto != nil { // checked before a topology auto drops it for topoPriced
		if err := s.Auto.Validate(); err != nil {
			return fmt.Errorf("collective: auto dispatch: %w", err)
		}
	}
	switch {
	case s.Hierarchical && s.Topology == nil:
		return fmt.Errorf("collective: hierarchical schedule requires a topology (a machine created with WithTopology)")
	case s.Hierarchical && s.Op == OpReduceScatter:
		return fmt.Errorf("collective: hierarchical reduction supports AllReduceKind only, got %v", s.Op)
	case s.Hierarchical:
		s.Auto = nil
	case s.Auto != nil && s.Topology != nil && !s.Topology.Trivial():
		s.Auto = &topoPriced
	default:
		s.Topology = nil
		if !s.Op.layout() && !s.Op.reduction() {
			s.Auto = nil
		}
	}
	if !s.Hierarchical || s.Op != OpIndex {
		s.Hier = HierOptions{}
	}
	if s.Segments < AutoSegments && s.Op != OpConcat && s.Op != OpConcatV {
		return fmt.Errorf("collective: segment count %d out of range (0 or 1 is monolithic, AutoSegments is -1)", s.Segments)
	}
	// Hierarchical and auto specs name the family, not one algorithm:
	// what the dispatcher or the two-level compiler overrides is zeroed.
	single := !s.Hierarchical && s.Auto == nil
	switch s.Op {
	case OpIndex, OpIndexV:
		s.Concat, s.Reduce = ConcatOptions{}, ReduceOptions{}
		o := &s.Index
		switch {
		case !single:
			*o, s.Radices = IndexOptions{}, nil
		case s.Radices != nil:
			*o = IndexOptions{}
			if err := ValidateRadices(n, s.Radices); err != nil {
				return err
			}
		case o.Algorithm == IndexBruck:
			if r := defaultRadix(o.Radix, n, k); n > 1 && (r < 2 || r > n) {
				return fmt.Errorf("collective: index radix %d out of range [2, %d]", r, n)
			}
		case o.Algorithm == IndexPairwiseXOR && !intmath.IsPow(2, n):
			return fmt.Errorf("collective: pairwise-xor index requires a power-of-two group size, got %d", n)
		case o.Algorithm < IndexBruck || o.Algorithm > IndexPairwiseXOR:
			return fmt.Errorf("collective: unknown index algorithm %v", o.Algorithm)
		default:
			*o = IndexOptions{Algorithm: o.Algorithm}
		}
	case OpConcat, OpConcatV:
		s.Index, s.Radices, s.Reduce = IndexOptions{}, nil, ReduceOptions{}
		o := &s.Concat
		switch a := o.Algorithm; {
		case s.Hierarchical:
			*o = ConcatOptions{}
		case s.Auto != nil:
			o.Algorithm = ConcatCirculant // the policy shapes the circulant candidate
		case a == ConcatCirculant:
		case a < ConcatCirculant || a > ConcatRecursiveDoubling:
			return fmt.Errorf("collective: unknown concat algorithm %v", a)
		case s.Layout != nil && a != ConcatRing:
			return fmt.Errorf("collective: %v has no V variant (ConcatV supports circulant and ring)", a)
		case a == ConcatRecursiveDoubling && !intmath.IsPow(2, n):
			return fmt.Errorf("collective: recursive doubling requires a power-of-two group size, got %d", n)
		default:
			o.LastRound = 0
		}
	default:
		s.Index, s.Radices, s.Concat = IndexOptions{}, nil, ConcatOptions{}
		o := &s.Reduce
		if s.BlockLen > 0 && o.Kernel == nil {
			return fmt.Errorf("collective: reduction requires a combine kernel (pass WithKernel or WithCombine)")
		}
		if o.ElemSize > 0 && s.BlockLen%o.ElemSize != 0 {
			return fmt.Errorf("collective: block size %d is not a multiple of the kernel's %d-byte elements", s.BlockLen, o.ElemSize)
		}
		if s.Hierarchical || s.Op == OpReduceScatter {
			o.LastRound = 0 // no concatenation phase
		}
		switch {
		case !single:
			o.Algorithm, o.Radix = ReduceRing, 0
		case o.Algorithm == ReduceBruck:
			if r := defaultRadix(o.Radix, n, k); n > 1 && (r < 2 || r > n) {
				return fmt.Errorf("collective: reduce radix %d out of range [2, %d]", r, n)
			}
		case o.Algorithm < ReduceRing || o.Algorithm > ReduceBruck:
			return fmt.Errorf("collective: unknown reduce algorithm %v", o.Algorithm)
		case o.Algorithm == ReduceHalving && !intmath.IsPow(2, n):
			return fmt.Errorf("collective: recursive halving requires a power-of-two group size, got %d", n)
		default:
			o.Radix = 0
		}
	}
	// Only a single packed uniform Bruck schedule pipelines (pipeline).
	bruck := s.Op == OpIndex && s.Radices == nil && s.Index.Algorithm == IndexBruck && !s.Index.NoPack ||
		s.Op.reduction() && s.Reduce.Algorithm == ReduceBruck
	if !single || !bruck || s.Segments == 1 {
		s.Segments = 0
	}
	return nil
}

// checkGroup validates a group against the engine.
func checkGroup(e *mpsim.Engine, g *mpsim.Group) error {
	if g == nil || g.Size() == 0 {
		return fmt.Errorf("collective: empty group")
	}
	for r := 0; r < g.Size(); r++ {
		if id := g.ID(r); id >= e.N() {
			return fmt.Errorf("collective: group member %d outside engine with %d processors", id, e.N())
		}
	}
	return nil
}

// defaultRadix resolves a Bruck radix request: 0 selects the
// round-minimal k+1 (Section 3.3 / 3.4).
func defaultRadix(r, n, k int) int {
	if r == 0 {
		return intmath.Min(k+1, n)
	}
	return r
}

// planKey is the comparable projection of a canonical Spec under which
// a PlanCache files its plan. The engine is part of the key — a cache
// may serve several engines without ever handing one engine's plan to
// another — and groups key by pointer identity: callers that reuse a
// *Group (Machine.World, a stored NewGroup result) hit the cache,
// distinct pointers with equal members merely recompile. Layout,
// topology and radices enter by 64-bit digest; a digest hit is confirmed
// against the entry's spec (cacheEntry.confirms).
type planKey struct {
	e                     *mpsim.Engine
	g                     *mpsim.Group
	op                    Op
	blockLen, root        int
	layout, topo, radices uint64
	index                 IndexOptions
	concat                ConcatOptions
	ralg                  ReduceAlgorithm
	rradix, segments      int
	rpolicy               partition.Policy
	kernel                string
	elemSize              int
	hier                  bool
	hierOpt               HierOptions
	auto                  bool
	beta, tau             float64
}

// keyOf is the one place a planKey is built.
func keyOf(e *mpsim.Engine, g *mpsim.Group, s *Spec) planKey {
	key := planKey{
		e: e, g: g, op: s.Op, blockLen: s.BlockLen, root: s.Root, index: s.Index, concat: s.Concat,
		ralg: s.Reduce.Algorithm, rradix: s.Reduce.Radix, segments: s.Segments,
		rpolicy: s.Reduce.LastRound, kernel: s.Reduce.KernelKey, elemSize: s.Reduce.ElemSize,
		hier: s.Hierarchical, hierOpt: s.Hier, auto: s.Auto != nil,
	}
	if s.Layout != nil {
		key.layout = s.Layout.Digest()
	}
	if s.Topology != nil {
		key.topo = s.Topology.Digest()
	}
	if s.Radices != nil {
		key.radices = 14695981039346656037 // FNV-1a, so mixed radix never keys as 0
		for _, r := range s.Radices {
			key.radices = (key.radices ^ uint64(r)) * 1099511628211
		}
	}
	if s.Auto != nil {
		// The profile enters through its parameters, not its name: two
		// profiles with equal Beta and Tau rank every candidate alike.
		key.beta, key.tau = s.Auto.Beta, s.Auto.Tau
	}
	return key
}

// maxCachedPlans bounds a PlanCache. Schedules are cheap to recompile
// (microseconds), so when callers churn through configurations — e.g.
// a fresh ephemeral *Group per request, which never hits the
// pointer-keyed cache — the cache evicts rather than growing without
// bound and pinning every dead group.
const maxCachedPlans = 256

// A PlanCache memoizes compiled plans — and auto-dispatch verdicts —
// per (engine, group, canonical Spec), holding at most maxCachedPlans
// entries and evicting the least recently used beyond that. Like the
// engines it serves, a PlanCache is not safe for concurrent use. The
// nil *PlanCache is valid and stores nothing: Compile is Get on it.
type PlanCache struct {
	plans map[planKey]*cacheEntry
	clock uint64 // use stamp of the latest Get
}

type cacheEntry struct {
	plan *Plan
	used uint64
	// What entered the key by digest, kept to confirm a hit.
	layout  *blocks.Layout
	topo    *costmodel.Topology
	radices []int
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[planKey]*cacheEntry)}
}

// Len returns the number of cached entries.
func (c *PlanCache) Len() int { return len(c.plans) }

// confirms is the one confirm step of a key hit: what entered the key
// by digest must be Equal. (The key holds the operation, and a canonical
// spec has a layout exactly when its operation takes one, so the two
// layouts are both nil or both set.)
func (ent *cacheEntry) confirms(s *Spec) bool {
	return (s.Layout == ent.layout || s.Layout.Equal(ent.layout)) &&
		s.Topology.Equal(ent.topo) && slices.Equal(s.Radices, ent.radices)
}

// Compile compiles the schedule the spec names for group g on engine
// e, uncached; an auto spec compiles its candidates and returns the
// cost-model winner.
func Compile(e *mpsim.Engine, g *mpsim.Group, s Spec) (*Plan, error) {
	return (*PlanCache)(nil).Get(e, g, s)
}

// Get returns the plan the spec names, compiling and caching it on
// first use. For an auto spec that is the arg-min of the linear-model
// time over the spec's candidates, each resolved through the cache, and
// the verdict is memoized under the auto spec itself — the steady state
// of a repeated auto call is one lookup. A reduction with an anonymous
// kernel (empty KernelKey) is resolved fresh on every call — the cache
// cannot tell two functions apart — and so is a digest collision, which
// never serves the wrong schedule.
func (c *PlanCache) Get(e *mpsim.Engine, g *mpsim.Group, s Spec) (*Plan, error) {
	if err := s.canonicalize(e, g); err != nil {
		return nil, err
	}
	store := c != nil && (!s.Op.reduction() || s.Reduce.KernelKey != "")
	var key planKey
	if store {
		key = keyOf(e, g, &s)
		if ent, ok := c.plans[key]; ok {
			if ent.confirms(&s) {
				c.clock++
				ent.used = c.clock
				return ent.plan, nil
			}
			store = false
		}
	}
	var pl *Plan
	var err error
	if s.Auto == nil {
		pl, err = compile(e, g, s)
	} else {
		pl, err = c.dispatch(e, g, &s)
	}
	if err != nil {
		return nil, err
	}
	if store {
		c.insert(key, &cacheEntry{plan: pl, layout: s.Layout, topo: s.Topology, radices: slices.Clone(s.Radices)})
	}
	return pl, nil
}

// insert stores an entry as the most recently used, evicting the least
// recently used one first if the cache is full: the only time the use
// stamps are scanned.
func (c *PlanCache) insert(key planKey, ent *cacheEntry) {
	if len(c.plans) >= maxCachedPlans {
		var oldest planKey
		stamp := c.clock + 1
		for k, old := range c.plans {
			if old.used < stamp {
				oldest, stamp = k, old.used
			}
		}
		delete(c.plans, oldest)
	}
	c.clock++
	ent.used = c.clock
	c.plans[key] = ent
}

// dispatch is the one auto loop: resolve every candidate of the
// canonical auto spec through the cache and keep the cheapest under the
// linear model — priced per link class under a topology (the spec keeps
// one only when it is nontrivial), by the caller's profile otherwise.
func (c *PlanCache) dispatch(e *mpsim.Engine, g *mpsim.Group, s *Spec) (best *Plan, err error) {
	bestTime := 0.0
	for _, cand := range s.candidates(g.Size(), e.Ports()) {
		pl, err := c.Get(e, g, cand)
		if err != nil {
			return nil, err
		}
		t := pl.Time(*s.Auto)
		if s.Topology != nil {
			t = pl.TimeTopo(s.Topology)
		}
		if best == nil || t < bestTime {
			best, bestTime = pl, t
		}
	}
	return best, nil
}

// candidates enumerates the schedules a canonical auto spec chooses
// among, in tie-breaking order (of equally priced candidates the first
// wins): the Section 3.5 dispatch rule, generalized. Flat candidates
// are tuned against the caller's profile — under a topology against the
// inter-group profile, which prices every round of a flat schedule.
func (s *Spec) candidates(n, k int) []Spec {
	base, p := *s, *s.Auto
	base.Auto, base.Topology = nil, nil
	if s.Topology != nil {
		p = s.Topology.ClassProfile(costmodel.LinkInter)
	}
	var out []Spec
	switch s.Op {
	case OpIndex, OpIndexV:
		// Bruck at the candidate radices (on padded slots, for a layout)
		// against the padding-free direct exchange. Direct goes first so
		// that an exact tie — common on layouts whose largest extent
		// dominates every round, where padded r = n Bruck and direct
		// coincide — resolves to the zero-copy schedule.
		if s.Op == OpIndexV && n > 1 {
			base.Index.Algorithm = IndexDirect
			out = append(out, base)
		}
		for _, r := range candidateRadices(p, n, s.BlockLen, k) {
			base.Index = IndexOptions{Radix: r}
			out = append(out, base)
		}
	case OpConcat, OpConcatV:
		// The circulant schedule (optimal rounds; padded volume on a
		// layout) against the padding-free ring.
		out = append(out, base)
		if s.Op == OpConcatV {
			base.Concat = ConcatOptions{Algorithm: ConcatRing}
			out = append(out, base)
		}
	default:
		// Ring, halving where the group size allows it, and Bruck at the
		// candidate radices. For AllReduce every candidate carries the
		// identical concatenation phase. All are monolithic: a pipelined
		// plan's merged-round C2 can dip below the volume bound by
		// multiplexing ports, which T = C1*Beta + C2*Tau would
		// over-reward; the segment axis has its own dispatch
		// (AutoSegments).
		out = append(out, base)
		if intmath.IsPow(2, n) && n > 1 {
			base.Reduce.Algorithm = ReduceHalving
			out = append(out, base)
		}
		base.Reduce.Algorithm = ReduceBruck
		for _, r := range candidateRadices(p, n, s.BlockLen, k) {
			base.Reduce.Radix = r
			out = append(out, base)
		}
	}
	if s.Topology == nil || s.Op == OpReduceScatter {
		return out
	}
	// The two-level schedule; for the index at candidate per-level radix
	// pairs. The inter level's messages are whole per-group bundles, so
	// its radix tunes against the bundle size, not the block size.
	hier := *s
	hier.Auto, hier.Hierarchical = nil, true
	if s.Op != OpIndex {
		return append(out, hier)
	}
	maxSize, groups := hierLevels(s.Topology)
	for _, ri := range candidateRadices(s.Topology.ClassProfile(costmodel.LinkIntra), maxSize, s.BlockLen, k) {
		for _, rj := range candidateRadices(p, groups, maxSize*maxSize*s.BlockLen, k) {
			hier.Hier = HierOptions{IntraRadix: ri, InterRadix: rj}
			out = append(out, hier)
		}
	}
	return out
}

// candidateRadices returns the deduplicated, clamped radix candidates
// of the auto dispatch: 2 (round-minimal at k = 1), k+1, the
// closed-form optimum for the block size, and n.
func candidateRadices(p costmodel.Profile, n, b, k int) []int {
	if n <= 2 {
		return []int{2}
	}
	var out []int
	for _, r := range []int{2, k + 1, OptimalRadix(p, n, b, k, false), n} {
		r = intmath.Min(intmath.Max(r, 2), n)
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// The nine names below exist only because the frozen benchmark/ package
// compiles against them; each is one Spec. Delete them in a
// benchmark-only PR.

func (c *PlanCache) IndexPlan(e *mpsim.Engine, g *mpsim.Group, blockLen int, opt IndexOptions) (*Plan, error) {
	return c.Get(e, g, Spec{Op: OpIndex, BlockLen: blockLen, Index: opt})
}

func (c *PlanCache) AutoIndexVPlan(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, p costmodel.Profile) (*Plan, error) {
	return c.Get(e, g, Spec{Op: OpIndexV, Layout: l, Auto: &p})
}

func (c *PlanCache) AutoConcatVPlan(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, p costmodel.Profile, policy partition.Policy) (*Plan, error) {
	return c.Get(e, g, Spec{Op: OpConcatV, Layout: l, Concat: ConcatOptions{LastRound: policy}, Auto: &p})
}

func CompileIndex(e *mpsim.Engine, g *mpsim.Group, blockLen int, opt IndexOptions) (*Plan, error) {
	return Compile(e, g, Spec{Op: OpIndex, BlockLen: blockLen, Index: opt})
}

func CompileConcat(e *mpsim.Engine, g *mpsim.Group, blockLen int, opt ConcatOptions) (*Plan, error) {
	return Compile(e, g, Spec{Op: OpConcat, BlockLen: blockLen, Concat: opt})
}

func CompileReduce(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, opt ReduceOptions) (*Plan, error) {
	return Compile(e, g, Spec{Op: kind.Op(), BlockLen: blockLen, Reduce: opt})
}

func CompileHierarchicalIndex(e *mpsim.Engine, g *mpsim.Group, blockLen int, topo *costmodel.Topology, opt HierOptions) (*Plan, error) {
	return Compile(e, g, Spec{Op: OpIndex, BlockLen: blockLen, Hierarchical: true, Hier: opt, Topology: topo})
}

func CompileHierarchicalReduce(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, topo *costmodel.Topology, opt ReduceOptions) (*Plan, error) {
	return Compile(e, g, Spec{Op: kind.Op(), BlockLen: blockLen, Reduce: opt, Hierarchical: true, Topology: topo})
}
