package collective

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
)

// genRaggedCounts builds a deterministic skewed n x n count table with
// zero-length blocks sprinkled in.
func genRaggedCounts(n, maxLen int) [][]int {
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
		for j := range counts[i] {
			switch (i*n + j) % 5 {
			case 0:
				counts[i][j] = 0
			case 1:
				counts[i][j] = 1 + (i+j)%maxLen
			default:
				counts[i][j] = 1 + (i*7+j*3)%maxLen
			}
		}
	}
	return counts
}

// fillRagged writes a (row, block, byte)-identifying pattern.
func fillRagged(r *buffers.Ragged) {
	l := r.Layout()
	for i := 0; i < l.Rows(); i++ {
		for j := 0; j < l.Cols(); j++ {
			blk := r.Block(i, j)
			for x := range blk {
				blk[x] = byte(i*131 + j*31 + x*7)
			}
		}
	}
}

// checkIndexVResult verifies out.Block(i, j) == in.Block(j, i).
func checkIndexVResult(t *testing.T, in, out *buffers.Ragged, tag string) {
	t.Helper()
	n := in.Layout().Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out.Block(i, j), in.Block(j, i)) {
				t.Fatalf("%s: out.Block(%d,%d) = %v, want in.Block(%d,%d) = %v",
					tag, i, j, out.Block(i, j), j, i, in.Block(j, i))
			}
		}
	}
}

// TestIndexVUniformMatchesFlat is the core equivalence guarantee: on a
// uniform layout IndexV must be byte- and Report-identical to IndexFlat
// for every (n, k) in the acceptance grid, on both transports.
func TestIndexVUniformMatchesFlat(t *testing.T) {
	const blockLen = 12
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		for n := 1; n <= 16; n++ {
			for k := 1; k <= 3 && k <= intmath.Max(1, n-1); k++ {
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTransport(backend))
				g := mpsim.WorldGroup(n)
				tag := fmt.Sprintf("%v n=%d k=%d", backend, n, k)

				fin, _ := buffers.New(n, n, blockLen)
				fout, _ := buffers.New(n, n, blockLen)
				for x, data := 0, fin.Bytes(); x < len(data); x++ {
					data[x] = byte(x*11 + 3)
				}
				flatRes, err := runFlat(e, g, fin, fout, Spec{Op: OpIndex})
				if err != nil {
					t.Fatalf("%s: IndexFlat: %v", tag, err)
				}

				l, err := blocks.Uniform(n, n, blockLen)
				if err != nil {
					t.Fatalf("%s: layout: %v", tag, err)
				}
				vin, _ := buffers.NewRagged(l)
				vout, _ := buffers.NewRagged(l.Transpose())
				copy(vin.Bytes(), fin.Bytes())
				vRes, err := runRagged(e, g, vin, vout, Spec{Op: OpIndexV})
				if err != nil {
					t.Fatalf("%s: IndexVFlat: %v", tag, err)
				}

				if !bytes.Equal(vout.Bytes(), fout.Bytes()) {
					t.Fatalf("%s: IndexV bytes diverge from IndexFlat", tag)
				}
				if !reflect.DeepEqual(vRes, flatRes) {
					t.Fatalf("%s: IndexV report %+v != IndexFlat report %+v", tag, vRes, flatRes)
				}
			}
		}
	}
}

// TestConcatVUniformMatchesFlat is the concatenation side of the
// uniform equivalence guarantee.
func TestConcatVUniformMatchesFlat(t *testing.T) {
	const blockLen = 9
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		for n := 1; n <= 16; n++ {
			for k := 1; k <= 3 && k <= intmath.Max(1, n-1); k++ {
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTransport(backend))
				g := mpsim.WorldGroup(n)
				tag := fmt.Sprintf("%v n=%d k=%d", backend, n, k)

				fin, _ := buffers.New(n, 1, blockLen)
				fout, _ := buffers.New(n, n, blockLen)
				for x, data := 0, fin.Bytes(); x < len(data); x++ {
					data[x] = byte(x*13 + 5)
				}
				flatRes, err := runFlat(e, g, fin, fout, Spec{Op: OpConcat})
				if err != nil {
					t.Fatalf("%s: ConcatFlat: %v", tag, err)
				}

				l, err := blocks.Uniform(n, 1, blockLen)
				if err != nil {
					t.Fatalf("%s: layout: %v", tag, err)
				}
				outL, err := l.ConcatOut()
				if err != nil {
					t.Fatalf("%s: ConcatOut: %v", tag, err)
				}
				vin, _ := buffers.NewRagged(l)
				vout, _ := buffers.NewRagged(outL)
				copy(vin.Bytes(), fin.Bytes())
				vRes, err := runRagged(e, g, vin, vout, Spec{Op: OpConcatV})
				if err != nil {
					t.Fatalf("%s: ConcatVFlat: %v", tag, err)
				}

				if !bytes.Equal(vout.Bytes(), fout.Bytes()) {
					t.Fatalf("%s: ConcatV bytes diverge from ConcatFlat", tag)
				}
				if !reflect.DeepEqual(vRes, flatRes) {
					t.Fatalf("%s: ConcatV report %+v != ConcatFlat report %+v", tag, vRes, flatRes)
				}
			}
		}
	}
}

// TestUniformVCompilesIdenticalRounds checks the compile-level half of
// the uniform guarantee directly: the V plan's round structure is
// byte-identical to the fixed-size plan's.
func TestUniformVCompilesIdenticalRounds(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		for _, k := range []int{1, 2} {
			if k > intmath.Max(1, n-1) {
				continue
			}
			for _, r := range []int{0, 2, 3} {
				if n > 1 && r > n {
					continue
				}
				e := mpsim.MustNew(n, mpsim.Ports(k))
				g := mpsim.WorldGroup(n)
				fixed, err := CompileIndex(e, g, 24, IndexOptions{Radix: r})
				if err != nil {
					t.Fatalf("CompileIndex(n=%d, k=%d, r=%d): %v", n, k, r, err)
				}
				l, _ := blocks.Uniform(n, n, 24)
				v, err := Compile(e, g, Spec{Op: OpIndexV, Layout: l, Index: IndexOptions{Radix: r}})
				if err != nil {
					t.Fatalf("compile IndexV(n=%d, k=%d, r=%d): %v", n, k, r, err)
				}
				// The layout only changes how the caller regions are
				// addressed: the steps are the fixed-size program's.
				if !reflect.DeepEqual(v.prog.roles, fixed.prog.roles) {
					t.Errorf("n=%d k=%d r=%d: V program %+v != fixed program %+v", n, k, r, v.prog.roles, fixed.prog.roles)
				}
				if v.c1 != fixed.c1 || v.c2 != fixed.c2 || v.c2lb != fixed.c2lb {
					t.Errorf("n=%d k=%d r=%d: V (c1=%d c2=%d lb=%d) != fixed (c1=%d c2=%d lb=%d)",
						n, k, r, v.c1, v.c2, v.c2lb, fixed.c1, fixed.c2, fixed.c2lb)
				}
			}
		}
	}
}

// TestIndexVRaggedMatchesReference runs every ragged-capable index
// algorithm on skewed layouts with zero-length blocks and checks the
// defining permutation (the direct per-pair reference) plus the
// compile-time C2 prediction and the lower bound.
func TestIndexVRaggedMatchesReference(t *testing.T) {
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		for _, n := range []int{2, 5, 8, 13, 16} {
			for _, k := range []int{1, 2, 3} {
				if k > n-1 {
					continue
				}
				counts := genRaggedCounts(n, 17)
				l, err := blocks.Ragged(counts)
				if err != nil {
					t.Fatal(err)
				}
				algs := []IndexOptions{
					{Algorithm: IndexBruck},
					{Algorithm: IndexBruck, Radix: 2},
					{Algorithm: IndexBruck, Radix: n},
					{Algorithm: IndexBruck, NoPack: true},
					{Algorithm: IndexDirect},
				}
				if intmath.IsPow(2, n) {
					algs = append(algs, IndexOptions{Algorithm: IndexPairwiseXOR})
				}
				for _, opt := range algs {
					e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTransport(backend))
					g := mpsim.WorldGroup(n)
					tag := fmt.Sprintf("%v n=%d k=%d alg=%v r=%d nopack=%v", backend, n, k, opt.Algorithm, opt.Radix, opt.NoPack)

					pl, err := Compile(e, g, Spec{Op: OpIndexV, Layout: l, Index: opt})
					if err != nil {
						t.Fatalf("%s: compile: %v", tag, err)
					}
					vin, _ := buffers.NewRagged(l)
					vout, _ := buffers.NewRagged(pl.OutLayout())
					fillRagged(vin)
					res, err := pl.Run(pl.Memory(vin, vout))
					if err != nil {
						t.Fatalf("%s: execute: %v", tag, err)
					}
					checkIndexVResult(t, vin, vout, tag)
					if res.C2 != pl.PredictedC2() {
						t.Errorf("%s: measured C2 = %d, plan predicted %d", tag, res.C2, pl.PredictedC2())
					}
					wantLB := lowerbound.IndexVVolume(counts, k)
					if res.C2LowerBound != wantLB {
						t.Errorf("%s: report lower bound %d, want %d", tag, res.C2LowerBound, wantLB)
					}
					if res.C2 < wantLB {
						t.Errorf("%s: C2 = %d below lower bound %d", tag, res.C2, wantLB)
					}
				}
			}
		}
	}
}

// TestIndexVMixedRadixRagged exercises the mixed-radix schedule on a
// ragged layout.
func TestIndexVMixedRadixRagged(t *testing.T) {
	const n = 12
	counts := genRaggedCounts(n, 9)
	l, err := blocks.Ragged(counts)
	if err != nil {
		t.Fatal(err)
	}
	e := mpsim.MustNew(n, mpsim.Ports(2))
	g := mpsim.WorldGroup(n)
	pl, err := Compile(e, g, Spec{Op: OpIndexV, Layout: l, Radices: []int{3, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	vin, _ := buffers.NewRagged(l)
	vout, _ := buffers.NewRagged(pl.OutLayout())
	fillRagged(vin)
	res, err := pl.Run(pl.Memory(vin, vout))
	if err != nil {
		t.Fatal(err)
	}
	checkIndexVResult(t, vin, vout, "mixed [3 2 2]")
	if res.C2 != pl.PredictedC2() {
		t.Errorf("measured C2 = %d, predicted %d", res.C2, pl.PredictedC2())
	}
}

// TestConcatVRaggedMatchesReference runs both ragged-capable
// concatenation algorithms on skewed contribution vectors.
func TestConcatVRaggedMatchesReference(t *testing.T) {
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		for _, n := range []int{2, 5, 9, 16} {
			for _, k := range []int{1, 2, 3} {
				if k > n-1 {
					continue
				}
				counts := make([]int, n)
				for i := range counts {
					counts[i] = (i * 5) % 23 // includes a zero contribution
				}
				l, err := blocks.RaggedVector(counts)
				if err != nil {
					t.Fatal(err)
				}
				for _, opt := range []ConcatOptions{
					{Algorithm: ConcatCirculant},
					{Algorithm: ConcatRing},
				} {
					e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTransport(backend))
					g := mpsim.WorldGroup(n)
					tag := fmt.Sprintf("%v n=%d k=%d alg=%v", backend, n, k, opt.Algorithm)

					pl, err := Compile(e, g, Spec{Op: OpConcatV, Layout: l, Concat: opt})
					if err != nil {
						t.Fatalf("%s: compile: %v", tag, err)
					}
					vin, _ := buffers.NewRagged(l)
					vout, _ := buffers.NewRagged(pl.OutLayout())
					fillRagged(vin)
					res, err := pl.Run(pl.Memory(vin, vout))
					if err != nil {
						t.Fatalf("%s: execute: %v", tag, err)
					}
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if !bytes.Equal(vout.Block(i, j), vin.Block(j, 0)) {
								t.Fatalf("%s: out.Block(%d,%d) != in.Block(%d,0)", tag, i, j, j)
							}
						}
					}
					if res.C2 != pl.PredictedC2() {
						t.Errorf("%s: measured C2 = %d, predicted %d", tag, res.C2, pl.PredictedC2())
					}
					wantLB := lowerbound.ConcatVVolume(counts, k)
					if res.C2LowerBound != wantLB {
						t.Errorf("%s: report lower bound %d, want %d", tag, res.C2LowerBound, wantLB)
					}
				}
			}
		}
	}
}

// TestAutoIndexVPicksModelMinimum checks the dispatch rule: the chosen
// plan's model time is minimal among the candidate set, and skew moves
// the choice away from padded Bruck toward the direct exchange under a
// bandwidth-bound profile.
func TestAutoIndexVPicksModelMinimum(t *testing.T) {
	const n = 16
	e := mpsim.MustNew(n)
	g := mpsim.WorldGroup(n)
	cache := NewPlanCache()

	// Heavy skew: one huge pair, everything else tiny. Padding makes the
	// Bruck family carry the huge extent in every slot of every round,
	// while the direct exchange pays it in exactly one round.
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
		for j := range counts[i] {
			counts[i][j] = 2
		}
	}
	counts[0][8] = 4096
	l, err := blocks.Ragged(counts)
	if err != nil {
		t.Fatal(err)
	}

	profile := costmodel.LowLatency // bandwidth-bound: volume decides
	best, err := cache.Get(e, g, Spec{Op: OpIndexV, Layout: l, Auto: &profile})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range candidateRadices(profile, n, l.Max(), e.Ports()) {
		pl, err := cache.Get(e, g, Spec{Op: OpIndexV, Layout: l, Index: IndexOptions{Algorithm: IndexBruck, Radix: r}})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Time(profile) < best.Time(profile) {
			t.Errorf("auto chose time %g but bruck r=%d has %g", best.Time(profile), r, pl.Time(profile))
		}
	}
	direct, err := cache.Get(e, g, Spec{Op: OpIndexV, Layout: l, Index: IndexOptions{Algorithm: IndexDirect}})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Time(profile) < best.Time(profile) {
		t.Errorf("auto chose time %g but direct has %g", best.Time(profile), direct.Time(profile))
	}
	if best.alg != IndexDirect.String() {
		t.Errorf("bandwidth-bound profile on heavy skew should pick the direct exchange, got %v (time %g vs direct %g)",
			best.alg, best.Time(profile), direct.Time(profile))
	}

	// The same layout under a latency-bound profile flips to a
	// log-round schedule.
	latency := costmodel.Profile{Name: "latency", Beta: 1, Tau: 0}
	best, err = cache.Get(e, g, Spec{Op: OpIndexV, Layout: l, Auto: &latency})
	if err != nil {
		t.Fatal(err)
	}
	if best.alg != IndexBruck.String() {
		t.Errorf("latency-bound profile should pick a Bruck schedule, got %v", best.alg)
	}
	if best.c1 >= direct.c1 {
		t.Errorf("latency-bound choice has %d rounds, want fewer than direct's %d", best.c1, direct.c1)
	}
}

// TestAutoConcatVDispatch checks the concat dispatch rule is exactly
// "model minimum of the compiled candidates": whichever of the padded
// circulant and the exact-extent ring the linear model scores lower is
// the one returned, for several profiles and layouts. (Under the
// round-max C2 measure every ring round still carries the largest block
// somewhere, so the circulant usually wins both axes; the dispatcher
// must report the model's verdict either way.)
func TestAutoConcatVDispatch(t *testing.T) {
	profiles := []costmodel.Profile{
		costmodel.SP1,
		costmodel.LowLatency,
		{Name: "latency", Beta: 1, Tau: 0},
		{Name: "bandwidth", Beta: 0, Tau: 1},
	}
	for _, n := range []int{4, 14, 16} {
		for _, k := range []int{1, 3} {
			if k > n-1 {
				continue
			}
			e := mpsim.MustNew(n, mpsim.Ports(k))
			g := mpsim.WorldGroup(n)
			cache := NewPlanCache()
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 1 + (i*3)%7
			}
			counts[3] = 512
			l, err := blocks.RaggedVector(counts)
			if err != nil {
				t.Fatal(err)
			}
			circ, err := cache.Get(e, g, Spec{Op: OpConcatV, Layout: l, Concat: ConcatOptions{Algorithm: ConcatCirculant}})
			if err != nil {
				t.Fatal(err)
			}
			ring, err := cache.Get(e, g, Spec{Op: OpConcatV, Layout: l, Concat: ConcatOptions{Algorithm: ConcatRing}})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range profiles {
				p := p
				got, err := cache.Get(e, g, Spec{Op: OpConcatV, Layout: l, Auto: &p})
				if err != nil {
					t.Fatal(err)
				}
				want := circ
				if ring.Time(p) < circ.Time(p) {
					want = ring
				}
				if got != want {
					t.Errorf("n=%d k=%d profile %s: auto chose %v (time %g), model minimum is %v (time %g)",
						n, k, p.Name, got.alg, got.Time(p), want.alg, want.Time(p))
				}
			}
			// The latency-bound profile must land on the round-optimal
			// circulant schedule.
			got, err := cache.Get(e, g, Spec{Op: OpConcatV, Layout: l, Auto: &costmodel.Profile{Name: "latency", Beta: 1, Tau: 0}})
			if err != nil {
				t.Fatal(err)
			}
			if n > 2 && got.alg != ConcatCirculant.String() {
				t.Errorf("n=%d k=%d: latency-bound profile should pick the circulant schedule, got %v", n, k, got.alg)
			}
		}
	}
}

// TestIndexVPlanCacheLayoutKeys checks that equal layouts hit the cache
// and different layouts miss it.
func TestIndexVPlanCacheLayoutKeys(t *testing.T) {
	const n = 8
	e := mpsim.MustNew(n)
	g := mpsim.WorldGroup(n)
	cache := NewPlanCache()

	c1 := genRaggedCounts(n, 7)
	l1, _ := blocks.Ragged(c1)
	l1b, _ := blocks.Ragged(c1) // equal table, distinct pointer
	c2 := genRaggedCounts(n, 13)
	l2, _ := blocks.Ragged(c2)

	p1, err := cache.Get(e, g, Spec{Op: OpIndexV, Layout: l1, Index: IndexOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	p1b, err := cache.Get(e, g, Spec{Op: OpIndexV, Layout: l1b, Index: IndexOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p1b {
		t.Errorf("equal layouts should share a cached plan")
	}
	p2, err := cache.Get(e, g, Spec{Op: OpIndexV, Layout: l2, Index: IndexOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Errorf("different layouts must not share a plan")
	}
	if cache.Len() != 2 {
		t.Errorf("cache has %d entries, want 2", cache.Len())
	}

	// V plans reject fixed-size buffers and vice versa.
	fin, _ := buffers.New(n, n, l1.Max())
	fout, _ := buffers.New(n, n, l1.Max())
	if _, err := p1.Run(p1.Memory(fin, fout)); err == nil {
		t.Errorf("layout plan accepted fixed-size buffers")
	}
	fixed, err := cache.IndexPlan(e, g, 8, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vin, _ := buffers.NewRagged(l1)
	vout, _ := buffers.NewRagged(l1.Transpose())
	if _, err := fixed.Run(fixed.Memory(vin, vout)); err == nil {
		t.Errorf("fixed-size plan accepted ragged buffers")
	}
}

// TestConcatVRejectsBaselinesWithoutVVariant pins the supported
// algorithm set.
func TestConcatVRejectsBaselinesWithoutVVariant(t *testing.T) {
	e := mpsim.MustNew(8)
	g := mpsim.WorldGroup(8)
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	l, _ := blocks.RaggedVector(counts)
	for _, alg := range []ConcatAlgorithm{ConcatFolklore, ConcatRecursiveDoubling} {
		if _, err := Compile(e, g, Spec{Op: OpConcatV, Layout: l, Concat: ConcatOptions{Algorithm: alg}}); err == nil {
			t.Errorf("CompileConcatV accepted %v", alg)
		}
	}
}

// TestExecutePlansMixedUniformRagged runs a fixed-size index plan and a
// ragged concat plan concurrently on disjoint groups in one engine
// pass.
func TestExecutePlansMixedUniformRagged(t *testing.T) {
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		e := mpsim.MustNew(9, mpsim.WithTransport(backend))
		gA, err := mpsim.NewGroup([]int{0, 1, 2, 3}, 9)
		if err != nil {
			t.Fatal(err)
		}
		gB, err := mpsim.NewGroup([]int{4, 5, 6, 7, 8}, 9)
		if err != nil {
			t.Fatal(err)
		}

		uni, err := CompileIndex(e, gA, 16, IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fin, _ := buffers.New(4, 4, 16)
		fout, _ := buffers.New(4, 4, 16)
		for x, data := 0, fin.Bytes(); x < len(data); x++ {
			data[x] = byte(x*3 + 1)
		}

		counts := []int{0, 7, 3, 12, 5}
		l, _ := blocks.RaggedVector(counts)
		rag, err := Compile(e, gB, Spec{Op: OpConcatV, Layout: l})
		if err != nil {
			t.Fatal(err)
		}
		vin, _ := buffers.NewRagged(l)
		vout, _ := buffers.NewRagged(rag.OutLayout())
		fillRagged(vin)

		results, err := ExecutePlans(e, []Job{{uni, uni.Memory(fin, fout)}, {rag, rag.Memory(vin, vout)}})
		if err != nil {
			t.Fatalf("%v: ExecutePlans: %v", backend, err)
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if !bytes.Equal(fout.Block(i, j), fin.Block(j, i)) {
					t.Fatalf("%v: uniform plan out.Block(%d,%d) wrong", backend, i, j)
				}
			}
		}
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if !bytes.Equal(vout.Block(i, j), vin.Block(j, 0)) {
					t.Fatalf("%v: ragged plan out.Block(%d,%d) wrong", backend, i, j)
				}
			}
		}
		if results[1].C2LowerBound != lowerbound.ConcatVVolume(counts, 1) {
			t.Errorf("%v: ragged report lower bound %d, want %d", backend,
				results[1].C2LowerBound, lowerbound.ConcatVVolume(counts, 1))
		}
	}
}

// TestCandidateRadicesDedupedAndClamped is the table test pinning the
// auto dispatcher's radix candidate set (shared by the ragged index and
// the reductions): no duplicates, every radix in [2, n], and the two
// extremes of the paper's trade-off — the round-minimal clamp of k+1
// and the volume-minimal n — always present. Duplicates or
// out-of-range radices would waste compiles and, worse, let an invalid
// candidate skew (or error out of) an auto verdict at small n.
func TestCandidateRadicesDedupedAndClamped(t *testing.T) {
	profiles := []costmodel.Profile{costmodel.SP1, costmodel.HighLatency, costmodel.LowLatency}
	for _, p := range profiles {
		for n := 2; n <= 16; n++ {
			for k := 1; k <= 3 && k <= n-1; k++ {
				for _, slot := range []int{1, 64, 4096} {
					got := candidateRadices(p, n, slot, k)
					if len(got) == 0 {
						t.Fatalf("n=%d k=%d slot=%d: empty candidate set", n, k, slot)
					}
					seen := make(map[int]bool, len(got))
					for _, r := range got {
						if r < 2 || r > n {
							t.Errorf("n=%d k=%d slot=%d: radix %d outside [2, %d]", n, k, slot, r, n)
						}
						if seen[r] {
							t.Errorf("n=%d k=%d slot=%d: duplicate radix %d in %v", n, k, slot, r, got)
						}
						seen[r] = true
					}
					if !seen[2] {
						t.Errorf("n=%d k=%d slot=%d: round-minimal radix 2 missing from %v", n, k, slot, got)
					}
					if kp := intmath.Min(k+1, n); !seen[kp] {
						t.Errorf("n=%d k=%d slot=%d: clamped k+1 radix %d missing from %v", n, k, slot, kp, got)
					}
					if n > 2 && !seen[n] {
						t.Errorf("n=%d k=%d slot=%d: volume-minimal radix %d missing from %v", n, k, slot, n, got)
					}
					// Every candidate must compile: an invalid radix would
					// error out of the auto sweep.
					e := mpsim.MustNew(n, mpsim.Ports(k))
					g := mpsim.WorldGroup(n)
					for _, r := range got {
						if _, err := CompileIndex(e, g, slot, IndexOptions{Radix: r}); err != nil {
							t.Errorf("n=%d k=%d slot=%d: candidate radix %d does not compile: %v", n, k, slot, r, err)
						}
					}
				}
			}
		}
	}
}
