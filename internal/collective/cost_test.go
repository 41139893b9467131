package collective

import (
	"fmt"
	"testing"

	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// TestIndexScheduleTotals: the schedule moves every nonzero-digit block
// exactly once per subphase, so the total block count per subphase is
// n minus the number of ids with digit zero at that position.
func TestIndexScheduleTotals(t *testing.T) {
	for n := 2; n <= 40; n++ {
		for r := 2; r <= n; r++ {
			sched := IndexSchedule(n, r, 1)
			total := 0
			for _, s := range sched {
				total += s
			}
			// Independent recount via digitCount over all (pos, z).
			want := 0
			w := intmath.CeilLog(r, n)
			dist := 1
			for pos := 0; pos < w; pos++ {
				h := r
				if pos == w-1 {
					h = intmath.CeilDiv(n, dist)
				}
				for z := 1; z < h; z++ {
					want += digitCount(n, r, z, dist)
				}
				dist *= r
			}
			if total != want {
				t.Fatalf("n=%d r=%d: schedule total %d, want %d", n, r, total, want)
			}
		}
	}
}

// TestIndexCostSpecialValues pins the two Section 3.3 special cases.
func TestIndexCostSpecialValues(t *testing.T) {
	// r=2, n=64, k=1, b=1: C1 = 6 rounds, C2 = 32*6 = 192.
	c1, c2 := IndexCost(64, 1, 2, 1)
	if c1 != 6 || c2 != 192 {
		t.Errorf("IndexCost(64,1,2,1) = (%d, %d), want (6, 192)", c1, c2)
	}
	// r=n=64: C1 = 63, C2 = 63.
	c1, c2 = IndexCost(64, 1, 64, 1)
	if c1 != 63 || c2 != 63 {
		t.Errorf("IndexCost(64,1,64,1) = (%d, %d), want (63, 63)", c1, c2)
	}
	// k-port round grouping: r=4, k=3 has (r-1)/k = 1 round per
	// subphase, so n=64 gives C1 = 3.
	c1, _ = IndexCost(64, 1, 4, 3)
	if c1 != 3 {
		t.Errorf("IndexCost(64,1,4,3) C1 = %d, want 3", c1)
	}
}

// TestKPortRoundCounts: grouping the r-1 steps of a subphase into
// ceil((r-1)/k) rounds (Section 3.4).
func TestKPortRoundCounts(t *testing.T) {
	for _, tc := range []struct{ n, r, k int }{
		{16, 4, 1}, {16, 4, 2}, {16, 4, 3}, {64, 8, 1}, {64, 8, 7},
		{81, 3, 2}, {27, 3, 2},
	} {
		c1, _ := IndexCost(tc.n, 1, tc.r, tc.k)
		if intmath.IsPow(tc.r, tc.n) {
			want := intmath.CeilDiv(tc.r-1, tc.k) * intmath.CeilLog(tc.r, tc.n)
			if c1 != want {
				t.Errorf("n=%d r=%d k=%d: C1 = %d, want %d", tc.n, tc.r, tc.k, c1, want)
			}
		}
	}
}

// TestIndexCostRespectsLowerBoundsEverywhere: sweep the whole family.
func TestIndexCostRespectsLowerBoundsEverywhere(t *testing.T) {
	const b = 3
	for n := 2; n <= 50; n++ {
		for k := 1; k <= 3 && k <= n-1; k++ {
			for r := 2; r <= n; r++ {
				c1, c2 := IndexCost(n, b, r, k)
				if c1 < lowerbound.IndexRounds(n, k) {
					t.Fatalf("n=%d r=%d k=%d: C1 = %d beats bound", n, r, k, c1)
				}
				if c2 < lowerbound.IndexVolume(n, b, k) {
					t.Fatalf("n=%d r=%d k=%d: C2 = %d beats bound", n, r, k, c2)
				}
			}
		}
	}
}

// TestTradeoffMonotonicity: along the radix axis, C1 decreases (weakly)
// and C2 increases (weakly) as r shrinks — the heart of the paper's
// trade-off. We check the endpoints dominate.
func TestTradeoffEndpoints(t *testing.T) {
	const n, b = 64, 4
	c1Min, _ := IndexCost(n, b, 2, 1)
	c1Max, c2Min := IndexCost(n, b, n, 1)
	_, c2Max := IndexCost(n, b, 2, 1)
	for r := 2; r <= n; r++ {
		c1, c2 := IndexCost(n, b, r, 1)
		if c1 < c1Min {
			t.Errorf("r=%d: C1 = %d below r=2's %d", r, c1, c1Min)
		}
		if c1 > c1Max {
			t.Errorf("r=%d: C1 = %d above r=n's %d", r, c1, c1Max)
		}
		if c2 < c2Min {
			t.Errorf("r=%d: C2 = %d below r=n's %d", r, c2, c2Min)
		}
		if c2 > c2Max+b*intmath.CeilDiv(n, 2) {
			// C2 is not perfectly monotone in r for non-powers, but
			// never exceeds the r=2 value by more than one step's
			// payload.
			t.Errorf("r=%d: C2 = %d far above r=2's %d", r, c2, c2Max)
		}
	}
}

// TestOptimalRadixTracksMessageSize: under SP-1 parameters the optimal
// radix grows with the block size (Fig 6's observation).
func TestOptimalRadixTracksMessageSize(t *testing.T) {
	const n, k = 64, 1
	rSmall := OptimalRadix(costmodel.SP1, n, 1, k, false)
	rLarge := OptimalRadix(costmodel.SP1, n, 4096, k, false)
	if rSmall > rLarge {
		t.Errorf("optimal radix at b=1 (%d) exceeds optimal at b=4096 (%d)", rSmall, rLarge)
	}
	if rSmall != 2 {
		t.Errorf("b=1: optimal radix = %d, want 2 (start-up dominated)", rSmall)
	}
	// At large b the optimum matches the volume-minimal r=n schedule
	// (radices close to n tie it exactly, so compare model times).
	c1, c2 := IndexCost(n, 4096, rLarge, k)
	c1n, c2n := IndexCost(n, 4096, n, k)
	if costmodel.SP1.Time(c1, c2) > costmodel.SP1.Time(c1n, c2n)+1e-12 {
		t.Errorf("b=4096: optimal radix %d is worse than r=n", rLarge)
	}
}

// TestOptimalRadixPowerOfTwoRestriction matches Fig 4's power-of-two
// sweep: the restricted optimum is never better than the unrestricted
// one.
func TestOptimalRadixPowerOfTwoRestriction(t *testing.T) {
	const n, k = 64, 1
	for _, b := range []int{8, 32, 128, 512} {
		rAll := OptimalRadix(costmodel.SP1, n, b, k, false)
		rP2 := OptimalRadix(costmodel.SP1, n, b, k, true)
		c1a, c2a := IndexCost(n, b, rAll, k)
		c1p, c2p := IndexCost(n, b, rP2, k)
		if costmodel.SP1.Time(c1p, c2p) < costmodel.SP1.Time(c1a, c2a)-1e-12 {
			t.Errorf("b=%d: power-of-two radix %d beats unrestricted %d", b, rP2, rAll)
		}
		if !intmath.IsPow(2, rP2) && rP2 != n {
			t.Errorf("b=%d: restricted search returned non-power-of-two %d", b, rP2)
		}
	}
}

// TestConcatCostMatchesBounds: closed form equals the lower bounds
// outside the special range.
func TestConcatCostMatchesBounds(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for n := k + 2; n <= 100; n++ {
			for _, b := range []int{1, 2, 5} {
				c1, c2, err := ConcatCost(n, b, k, partition.PreferOptimal)
				if err != nil {
					t.Fatalf("n=%d b=%d k=%d: %v", n, b, k, err)
				}
				if c1 < lowerbound.ConcatRounds(n, k) || c2 < lowerbound.ConcatVolume(n, b, k) {
					t.Fatalf("n=%d b=%d k=%d: closed form (%d,%d) beats bounds", n, b, k, c1, c2)
				}
				if !partition.InSpecialRange(n, b, k) {
					if c1 != lowerbound.ConcatRounds(n, k) {
						t.Errorf("n=%d b=%d k=%d: C1 = %d, want bound %d", n, b, k, c1, lowerbound.ConcatRounds(n, k))
					}
					if c2 != lowerbound.ConcatVolume(n, b, k) {
						t.Errorf("n=%d b=%d k=%d: C2 = %d, want bound %d", n, b, k, c2, lowerbound.ConcatVolume(n, b, k))
					}
				}
			}
		}
	}
}

// TestDigitCountMatchesEnumeration: the O(1) count equals brute force.
func TestDigitCountMatchesEnumeration(t *testing.T) {
	for n := 1; n <= 60; n++ {
		for r := 2; r <= 6; r++ {
			dist := 1
			for pos := 0; pos < 4; pos++ {
				for z := 1; z < r; z++ {
					want := 0
					for id := 0; id < n; id++ {
						x := id
						for i := 0; i < pos; i++ {
							x /= r
						}
						if x%r == z {
							want++
						}
					}
					if got := digitCount(n, r, z, dist); got != want {
						t.Fatalf("digitCount(n=%d, r=%d, z=%d, dist=%d) = %d, want %d", n, r, z, dist, got, want)
					}
				}
				dist *= r
			}
		}
	}
}

// TestProgramCounterMatchesClosedForms is the one place the counter of
// the step program (program.finish, which every plan's Rounds,
// PredictedC2 and phase table come from) is held against the closed
// forms of cost.go: for every family, every n = 1..16 and k = 1..3 the
// family applies to, the compiled plan must count exactly what the
// formula predicts — and a hierarchical plan's per-class phase totals
// must equal the formulas of its sub-schedules and star phases.
func TestProgramCounterMatchesClosedForms(t *testing.T) {
	const b = 6
	pow2 := func(n, k int) bool { return intmath.IsPow(2, n) }
	always := func(n, k int) bool { return true }
	twos := func(n int) []int { // the all-2 radix vector covering n
		var r []int
		for w := 1; w < n; w *= 2 {
			r = append(r, 2)
		}
		return r
	}
	radix := func(r, n int) int { return intmath.Max(2, intmath.Min(r, n)) }
	circ := func(n, bl, k int) (int, int) {
		c1, c2, err := ConcatCost(n, bl, k, partition.PreferOptimal)
		if err != nil {
			t.Fatalf("ConcatCost(%d, %d, %d): %v", n, bl, k, err)
		}
		return c1, c2
	}
	type compileFunc func(e *mpsim.Engine, g *mpsim.Group, n, k int) (*Plan, error)
	index := func(opt func(n, k int) IndexOptions) compileFunc {
		return func(e *mpsim.Engine, g *mpsim.Group, n, k int) (*Plan, error) {
			return CompileIndex(e, g, b, opt(n, k))
		}
	}
	concat := func(alg ConcatAlgorithm) compileFunc {
		return func(e *mpsim.Engine, g *mpsim.Group, n, k int) (*Plan, error) {
			return CompileConcat(e, g, b, ConcatOptions{Algorithm: alg})
		}
	}
	rooted := func(op Op) compileFunc { // rooted off rank 0, so blocks wrap around the rank order
		return func(e *mpsim.Engine, g *mpsim.Group, n, k int) (*Plan, error) {
			return Compile(e, g, Spec{Op: op, BlockLen: b, Root: n / 2})
		}
	}
	families := []struct {
		name    string
		applies func(n, k int) bool
		compile compileFunc
		want    func(n, k int) (c1, c2 int)
	}{
		{"IndexCost r=2", always, index(func(n, k int) IndexOptions { return IndexOptions{Radix: radix(2, n)} }),
			func(n, k int) (int, int) { return IndexCost(n, b, 2, k) }},
		{"IndexCost r=k+1", always, index(func(n, k int) IndexOptions { return IndexOptions{} }),
			func(n, k int) (int, int) { return IndexCost(n, b, radix(k+1, n), k) }},
		{"IndexCost r=n", always, index(func(n, k int) IndexOptions { return IndexOptions{Radix: radix(n, n)} }),
			func(n, k int) (int, int) { return IndexCost(n, b, radix(n, n), k) }},
		{"SegmentedIndexCost s=3", always, index(func(n, k int) IndexOptions { return IndexOptions{Radix: radix(2, n), Segments: 3} }),
			func(n, k int) (int, int) { return SegmentedIndexCost(n, b, 2, k, 3) }},
		{"IndexMixedCost", always,
			func(e *mpsim.Engine, g *mpsim.Group, n, k int) (*Plan, error) {
				return Compile(e, g, mixedSpec(b, twos(n)))
			},
			func(n, k int) (int, int) { return IndexMixedCost(n, b, twos(n), k) }},
		{"DirectIndexCost", always, index(func(n, k int) IndexOptions { return IndexOptions{Algorithm: IndexDirect} }),
			func(n, k int) (int, int) { return DirectIndexCost(n, b, k) }},
		{"DirectIndexCost xor", pow2, index(func(n, k int) IndexOptions { return IndexOptions{Algorithm: IndexPairwiseXOR} }),
			func(n, k int) (int, int) { return DirectIndexCost(n, b, k) }},
		{"ConcatCost", always, concat(ConcatCirculant), func(n, k int) (int, int) { return circ(n, b, k) }},
		{"FolkloreConcatCost", always, concat(ConcatFolklore), func(n, k int) (int, int) { return FolkloreConcatCost(n, b, k) }},
		{"TreeGatherCost gather", always, rooted(OpGather), func(n, k int) (int, int) { return TreeGatherCost(n, b, k) }},
		{"TreeGatherCost scatter", always, rooted(OpScatter), func(n, k int) (int, int) { return TreeGatherCost(n, b, k) }},
		{"TreeBroadcastCost", always, rooted(OpBroadcast), func(n, k int) (int, int) { return TreeBroadcastCost(n, b, k) }},
		{"RingConcatCost", always, concat(ConcatRing), func(n, k int) (int, int) { return RingConcatCost(n, b) }},
		{"RecursiveDoublingConcatCost", pow2, concat(ConcatRecursiveDoubling),
			func(n, k int) (int, int) { return RecursiveDoublingConcatCost(n, b) }},
	}
	for n := 1; n <= 16; n++ {
		for k := 1; k <= 3 && k <= intmath.Max(1, n-1); k++ {
			e := mpsim.MustNew(n, mpsim.Ports(k))
			g := mpsim.WorldGroup(n)
			for _, f := range families {
				if !f.applies(n, k) {
					continue
				}
				pl, err := f.compile(e, g, n, k)
				if err != nil {
					t.Fatalf("%s n=%d k=%d: %v", f.name, n, k, err)
				}
				if c1, c2 := f.want(n, k); pl.c1 != c1 || pl.c2 != c2 {
					t.Errorf("%s n=%d k=%d: program counts (%d, %d), closed form (%d, %d)", f.name, n, k, pl.c1, pl.c2, c1, c2)
				}
			}
			// Uniform two-level topologies G x m of this n: the intra and
			// inter totals are the sub-schedules' closed forms plus the
			// star phases' ceil((m-1)/k) rounds of one fixed message each.
			for G := 2; G < n; G++ {
				if n%G != 0 {
					continue
				}
				m := n / G
				topo, err := costmodel.ParseTopology(fmt.Sprintf("%dx%d", G, m))
				if err != nil {
					t.Fatal(err)
				}
				fan, cross := intmath.CeilDiv(m-1, k), intmath.CeilDiv(G-1, k)
				type split struct{ intraC1, intraC2, interC1, interC2 int }
				check := func(name string, pl *Plan, err error, want split) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s %dx%d k=%d: %v", name, G, m, k, err)
					}
					got := split{pl.PredictedClassC1(mpsim.ClassIntra), pl.PredictedClassC2(mpsim.ClassIntra),
						pl.PredictedClassC1(mpsim.ClassInter), pl.PredictedClassC2(mpsim.ClassInter)}
					if got != want || pl.c1 != want.intraC1+want.interC1 || pl.c2 != want.intraC2+want.interC2 {
						t.Errorf("%s %dx%d k=%d: program counts %+v (total %d, %d), closed forms %+v", name, G, m, k, got, pl.c1, pl.c2, want)
					}
				}
				a1, a2 := IndexCost(m, b, radix(k+1, m), k)
				x1, x2 := IndexCost(G, m*m*b, radix(k+1, G), k)
				pl, err := CompileHierarchicalIndex(e, g, b, topo, HierOptions{})
				check("hier index", pl, err, split{a1 + 2*fan, a2 + 2*fan*(n-m)*b, x1, x2})
				a1, a2 = circ(m, b, k)
				x1, x2 = circ(G, m*b, k)
				pl, err = Compile(e, g, Spec{Op: OpConcat, BlockLen: b, Hierarchical: true, Topology: topo})
				check("hier concat", pl, err, split{a1 + fan, a2 + fan*(n-m)*b, x1, x2})
				pl, err = CompileHierarchicalReduce(e, g, AllReduceKind, b, topo, ReduceOptions{Kernel: func(dst, src []byte) {}})
				check("hier allreduce", pl, err, split{2 * fan, 2 * fan * n * b, 2 * cross, 2 * cross * n * b})
			}
		}
	}
}
