package bruck

// Tests for the compiled-plan API: cache identity across option
// changes, byte-equivalence of Plan.Execute and RunPlans with Run and
// with compiling per call on both transports, and per-plan reports from
// concurrent disjoint-group execution.

import (
	"testing"
	"time"

	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// compileAndRun is the uncached compile-per-call path the plan tests
// compare against.
func compileAndRun(e *mpsim.Engine, g *mpsim.Group, s collective.Spec, in, out *Buffers) (*Report, error) {
	s.BlockLen = in.BlockLen()
	pl, err := collective.Compile(e, g, s)
	if err != nil {
		return nil, err
	}
	return pl.Execute(in, out)
}

// mustCompile is Machine.Compile that fails the test on error.
func mustCompile(t testing.TB, m *Machine, op Op, in any, opts ...CollectiveOption) *Plan {
	t.Helper()
	pl, err := m.Compile(op, in, opts...)
	if err != nil {
		t.Fatalf("Compile(%v): %v", op, err)
	}
	return pl
}

// TestPlanCacheIdentity: compiling the same configuration twice returns
// the same *Plan; changing any option, the group, or the block size
// misses the cache.
func TestPlanCacheIdentity(t *testing.T) {
	m := MustNewMachine(8)
	g, err := m.NewGroup([]int{1, 3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	b16, b32, c16 := mustBuffers(t, 8, 8, 16), mustBuffers(t, 8, 8, 32), mustBuffers(t, 8, 1, 16)
	base := mustCompile(t, m, Index, b16, WithRadix(2))
	if same := mustCompile(t, m, Index, b16, WithRadix(2)); base != same {
		t.Error("identical index configurations compiled to distinct plans (cache miss)")
	}
	for name, opts := range map[string][]CollectiveOption{
		"radix":     {WithRadix(4)},
		"algorithm": {WithIndexAlgorithm(IndexDirect)},
		"no-pack":   {WithRadix(2), WithoutPacking()},
		"group":     {WithRadix(2), OnGroup(g)},
		"mixed":     {WithRadices([]int{2, 2, 2})},
	} {
		if other := mustCompile(t, m, Index, b16, opts...); other == base {
			t.Errorf("%s change hit the cache", name)
		}
	}
	if other := mustCompile(t, m, Index, b32, WithRadix(2)); other == base {
		t.Error("block-size change hit the cache")
	}

	cbase := mustCompile(t, m, Concat, c16)
	if csame := mustCompile(t, m, Concat, c16); csame != cbase {
		t.Error("identical concat configurations compiled to distinct plans")
	}
	if cpol := mustCompile(t, m, Concat, c16, WithLastRoundPolicy(LastRoundMinVolume)); cpol == cbase {
		t.Error("last-round policy change hit the cache")
	}
	if calg := mustCompile(t, m, Concat, c16, WithConcatAlgorithm(ConcatRing)); calg == cbase {
		t.Error("concat algorithm change hit the cache")
	}
}

// TestFlatEntryPointsHitPlanCache: Run routes through the same cache
// Compile populates — the "thin wrapper" property.
func TestFlatEntryPointsHitPlanCache(t *testing.T) {
	const n, b = 8, 8
	m := MustNewMachine(n)
	in, out := input(t, n, n, b, 1), mustBuffers(t, n, n, b)
	cin, cout := input(t, n, 1, b, 2), mustBuffers(t, n, n, b)
	mustRun(t, m, Index, in, out, WithRadix(2))
	mustRun(t, m, Concat, cin, cout)
	cached := m.plans.Len()
	// Repeats of the same configurations must not add cache entries.
	mustRun(t, m, Index, in, out, WithRadix(2))
	mustRun(t, m, Concat, cin, cout)
	mustCompile(t, m, Index, in, WithRadix(2))
	mustCompile(t, m, Concat, cin)
	if got := m.plans.Len(); got != cached {
		t.Errorf("repeated calls grew the plan cache from %d to %d entries", cached, got)
	}
}

// TestPlanExecuteMatchesFlat: a reused plan produces byte-identical
// results and identical reports to compiling per call, on both
// transports, across the full (n, k) sweep.
func TestPlanExecuteMatchesFlat(t *testing.T) {
	const b = 3
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, k := range []int{1, 2, 3} {
			for n := 1; n <= 16; n++ {
				if k > intmath.Max(1, n-1) {
					continue
				}
				m := MustNewMachine(n, Ports(k), WithTransport(backend))
				e, err := mpsim.New(n, mpsim.Ports(k), mpsim.WithTransport(backend))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					op   Op
					in   *Buffers
					runs int // reuse matters: run the index twice
				}{
					{Index, input(t, n, n, b, n*k), 2},
					{Concat, input(t, n, 1, b, n+k), 1},
				} {
					pl := mustCompile(t, m, c.op, c.in)
					for r := 0; r < c.runs; r++ {
						got, want := mustBuffers(t, n, n, b), mustBuffers(t, n, n, b)
						gotRep, err := pl.Execute(c.in, got)
						if err != nil {
							t.Fatalf("%v plan Execute(n=%d, k=%d, %s): %v", c.op, n, k, backend, err)
						}
						wantRep, err := compileAndRun(e, mpsim.WorldGroup(n), collective.Spec{Op: c.op}, c.in, want)
						if err != nil {
							t.Fatalf("%v compile per call (n=%d, k=%d, %s): %v", c.op, n, k, backend, err)
						}
						if !got.Equal(want) || gotRep.C1 != wantRep.C1 || gotRep.C2 != wantRep.C2 {
							t.Fatalf("%v n=%d k=%d %s: plan (%d, %d) differs from compiling per call (%d, %d)",
								c.op, n, k, backend, gotRep.C1, gotRep.C2, wantRep.C1, wantRep.C2)
						}
					}
				}
			}
		}
	}
}

// TestRunPlansMatchesSequential: an index plan and a concat plan on
// disjoint halves of one machine, executed concurrently by RunPlans,
// produce exactly the bytes and reports of sequential execution — for
// n = 1..16 group members, k = 1..3 ports, on both transports.
func TestRunPlansMatchesSequential(t *testing.T) {
	const b = 3
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, k := range []int{1, 2, 3} {
			for n := 1; n <= 16; n++ {
				total := 2 * n
				if k > intmath.Max(1, total-1) {
					continue
				}
				m := MustNewMachine(total, Ports(k), WithTransport(backend))
				lo, hi := make([]int, n), make([]int, n)
				for i := 0; i < n; i++ {
					lo[i], hi[i] = i, n+i
				}
				gLo, err := m.NewGroup(lo)
				if err != nil {
					t.Fatal(err)
				}
				gHi, err := m.NewGroup(hi)
				if err != nil {
					t.Fatal(err)
				}
				iin, cin := input(t, n, n, b, 3*n+k), input(t, n, 1, b, 5*n+k)
				ipl := mustCompile(t, m, Index, iin, OnGroup(gLo))
				cpl := mustCompile(t, m, Concat, cin, OnGroup(gHi))

				// Sequential reference.
				iWant, cWant := mustBuffers(t, n, n, b), mustBuffers(t, n, n, b)
				iRepWant, err := ipl.Execute(iin, iWant)
				if err != nil {
					t.Fatalf("sequential index (n=%d, k=%d, %s): %v", n, k, backend, err)
				}
				cRepWant, err := cpl.Execute(cin, cWant)
				if err != nil {
					t.Fatalf("sequential concat (n=%d, k=%d, %s): %v", n, k, backend, err)
				}

				// Concurrent run.
				iGot, cGot := mustBuffers(t, n, n, b), mustBuffers(t, n, n, b)
				if err := ipl.Bind(iin, iGot); err != nil {
					t.Fatal(err)
				}
				if err := cpl.Bind(cin, cGot); err != nil {
					t.Fatal(err)
				}
				reps, err := m.RunPlans([]*Plan{ipl, cpl})
				if err != nil {
					t.Fatalf("RunPlans(n=%d, k=%d, %s): %v", n, k, backend, err)
				}
				if len(reps) != 2 {
					t.Fatalf("RunPlans returned %d reports, want 2", len(reps))
				}
				if !iGot.Equal(iWant) || !cGot.Equal(cWant) {
					t.Fatalf("n=%d k=%d %s: concurrent bytes differ from sequential", n, k, backend)
				}
				if reps[0].C1 != iRepWant.C1 || reps[0].C2 != iRepWant.C2 || reps[1].C1 != cRepWant.C1 || reps[1].C2 != cRepWant.C2 {
					t.Fatalf("n=%d k=%d %s: concurrent reports %+v differ from sequential (%+v, %+v)",
						n, k, backend, reps, iRepWant, cRepWant)
				}
			}
		}
	}
}

// TestRunPlansValidation: a rejected plan list (the texts are rows of
// TestFacadeErrorTexts) leaves the machine free, and the valid disjoint
// pair runs next.
func TestRunPlansValidation(t *testing.T) {
	const n, b = 8, 4
	m := MustNewMachine(n)
	var plans []*Plan
	for _, ids := range [][]int{{0, 1, 2, 3}, {3, 4, 5, 6}, {4, 5, 6, 7}} { // the second overlaps both
		g, _ := m.NewGroup(ids)
		in := mustBuffers(t, len(ids), len(ids), b)
		pl := mustCompile(t, m, Index, in, OnGroup(g))
		if err := pl.Bind(in, mustBuffers(t, len(ids), len(ids), b)); err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	m.RunPlans(plans[:2]) // rejected: the groups share processor 3
	if _, err := m.RunPlans([]*Plan{plans[0], plans[2]}); err != nil {
		t.Errorf("RunPlans on disjoint groups failed: %v", err)
	}
}

// TestPlanExecuteShapeValidation: executing with wrong-shaped buffers
// fails before any communication.
func TestPlanExecuteShapeValidation(t *testing.T) {
	const n, b = 6, 4
	m := MustNewMachine(n)
	good, wrongN, wrongB := mustBuffers(t, n, n, b), mustBuffers(t, n+1, n+1, b), mustBuffers(t, n, n, b+1)
	pl := mustCompile(t, m, Index, good)
	if _, err := pl.Execute(good, good); err == nil {
		t.Error("plan executed with aliased buffers")
	}
	if _, err := pl.Execute(nil, good); err == nil {
		t.Error("plan executed with nil input")
	}
	if _, err := pl.Execute(wrongN, good); err == nil {
		t.Error("plan executed with wrong processor count")
	}
	if _, err := pl.Execute(good, wrongB); err == nil {
		t.Error("plan executed with wrong block size")
	}
	if err := pl.Bind(wrongN, good); err == nil {
		t.Error("Bind accepted a wrong-shaped buffer")
	}
}

// TestPlanMixedAndAblationsMatchFlat: compiled mixed-radix, no-pack,
// direct and xor plans produce the index permutation, and a second
// execution reproduces the first.
func TestPlanMixedAndAblationsMatchFlat(t *testing.T) {
	const n, b = 16, 4
	for _, tc := range []struct {
		name string
		opts []CollectiveOption
	}{
		{"mixed-2-4-2", []CollectiveOption{WithRadices([]int{2, 4, 2})}},
		{"no-pack", []CollectiveOption{WithRadix(2), WithoutPacking()}},
		{"direct", []CollectiveOption{WithIndexAlgorithm(IndexDirect)}},
		{"xor", []CollectiveOption{WithIndexAlgorithm(IndexPairwiseXOR)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNewMachine(n)
			in := input(t, n, n, b, 11)
			pl := mustCompile(t, m, Index, in, tc.opts...)
			var outs [2]*Buffers
			var reps [2]*Report
			for i := range outs {
				outs[i] = mustBuffers(t, n, n, b)
				var err error
				if reps[i], err = pl.Execute(in, outs[i]); err != nil {
					t.Fatal(err)
				}
			}
			checkIndex(t, n, in, outs[0])
			if !outs[1].Equal(outs[0]) || reps[1].C1 != reps[0].C1 || reps[1].C2 != reps[0].C2 {
				t.Error("second plan execution diverged from the first")
			}
		})
	}
}

// TestRunPlansManyGroups runs four disjoint index plans at once and
// checks each result and each per-group report independently.
func TestRunPlansManyGroups(t *testing.T) {
	const groups, per, b = 4, 4, 8
	m := MustNewMachine(groups * per)
	plans := make([]*Plan, groups)
	ins, outs := make([]*Buffers, groups), make([]*Buffers, groups)
	for gi := 0; gi < groups; gi++ {
		ids := make([]int, per)
		for i := range ids {
			ids[i] = gi*per + i
		}
		g, err := m.NewGroup(ids)
		if err != nil {
			t.Fatal(err)
		}
		ins[gi], outs[gi] = input(t, per, per, b, 100+gi), mustBuffers(t, per, per, b)
		plans[gi] = mustCompile(t, m, Index, ins[gi], OnGroup(g), WithRadix(2))
		if err := plans[gi].Bind(ins[gi], outs[gi]); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := m.RunPlans(plans)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := collective.IndexCost(per, b, 2, 1)
	for gi := 0; gi < groups; gi++ {
		checkIndex(t, per, ins[gi], outs[gi])
		if reps[gi].C1 != c1 || reps[gi].C2 != c2 {
			t.Errorf("group %d report (%d, %d), want (%d, %d)", gi, reps[gi].C1, reps[gi].C2, c1, c2)
		}
	}
}

// TestPlanSurvivesFencedRun: after a deadlocked run is fenced (fresh
// transport and pools), an existing plan keeps executing correctly —
// plans hold no reference to the fenced transport generation.
func TestPlanSurvivesFencedRun(t *testing.T) {
	// Machine-level plans cannot force a deadlock, so drive the engine
	// directly: compile, deadlock the engine, execute the plan again.
	testPlanSurvivesFence(t, mpsim.BackendChan)
	testPlanSurvivesFence(t, mpsim.BackendSlot)
}

func testPlanSurvivesFence(t *testing.T, backend mpsim.Backend) {
	t.Helper()
	const n, b = 4, 8
	e, err := mpsim.New(n, mpsim.WithTransport(backend), mpsim.Watchdog(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := collective.Compile(e, mpsim.WorldGroup(n), collective.Spec{Op: collective.OpIndex, BlockLen: b})
	if err != nil {
		t.Fatal(err)
	}
	in, out1 := input(t, n, n, b, 0), mustBuffers(t, n, n, b)
	if _, err := pl.Execute(in, out1); err != nil {
		t.Fatalf("%s: first execute: %v", backend, err)
	}
	// Deadlock: rank 0 waits for a message nobody sends.
	err = e.Run(func(p *mpsim.Proc) error {
		if p.Rank() == 0 {
			_, err := p.Exchange(nil, []int{1})
			return err
		}
		p.Skip()
		return nil
	})
	if err == nil {
		t.Fatalf("%s: deadlock run unexpectedly succeeded", backend)
	}
	// The plan must keep working on the fenced engine's fresh transport.
	out2, _ := buffers.New(n, n, b)
	if _, err := pl.Execute(in, out2); err != nil {
		t.Fatalf("%s: execute after fence: %v", backend, err)
	}
	if !out2.Equal(out1) {
		t.Fatalf("%s: post-fence execution produced different bytes", backend)
	}
}

// TestLegacyEntryPointsStillCorrect spot-checks the seven methods the
// benchmark still calls: each is Run under its old name and must
// produce the defining result, twice (the second call hits the plan
// cache).
func TestLegacyEntryPointsStillCorrect(t *testing.T) {
	const n, b = 7, 4
	m := MustNewMachine(n)
	in, cin, kernel := input(t, n, n, b, 0), input(t, n, 1, b, 0), WithKernel(ReduceMax, Int32)
	rin, err := FromRaggedMatrix(raggedIndexInput(n))
	if err != nil {
		t.Fatal(err)
	}
	crin, err := FromRaggedVector(raggedIndexInput(n)[1])
	if err != nil {
		t.Fatal(err)
	}
	vector, err := cin.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	want := mustBuffers(t, n, n, b)
	mustRun(t, m, AllReduce, in, want, kernel)
	errOf := func(_ *Report, err error) error { return err }
	for rep := 0; rep < 2; rep++ {
		idx, cat, red := mustBuffers(t, n, n, b), mustBuffers(t, n, n, b), mustBuffers(t, n, n, b)
		rout, crout := raggedOut(t, Index, rin), raggedOut(t, Concat, crin)
		matIdx, _, errIdx := m.Index(in.ToMatrix(), WithRadix(2))
		matCat, _, errCat := m.Concat(vector)
		for _, c := range []struct {
			name string
			err  error
		}{
			{"Index", errIdx},
			{"Concat", errCat},
			{"IndexFlat", errOf(m.IndexFlat(in, idx))},
			{"ConcatFlat", errOf(m.ConcatFlat(cin, cat))},
			{"IndexVFlat", errOf(m.IndexVFlat(rin, rout))},
			{"ConcatVFlat", errOf(m.ConcatVFlat(crin, crout))},
			{"AllReduceFlat", errOf(m.AllReduceFlat(in, red, kernel))},
		} {
			if c.err != nil {
				t.Fatalf("%s: %v", c.name, c.err)
			}
		}
		checkIndex(t, n, in, blockMatrix(matIdx))
		checkConcat(t, n, cin, blockMatrix(matCat))
		checkIndex(t, n, in, idx)
		checkConcat(t, n, cin, cat)
		checkIndex(t, n, rin, rout)
		checkConcat(t, n, crin, crout)
		if !red.Equal(want) {
			t.Fatal("AllReduceFlat differs from Run(AllReduce)")
		}
	}
}

// blockMatrix views a block matrix for checkIndex and checkConcat.
type blockMatrix [][][]byte

func (bm blockMatrix) Block(i, j int) []byte { return bm[i][j] }
