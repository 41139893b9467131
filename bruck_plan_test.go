package bruck

// Tests for the compiled-plan API: cache identity across option
// changes, byte-equivalence of Plan.Execute and RunPlans with the
// direct flat paths on both transports, and per-plan reports from
// concurrent disjoint-group execution.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// fillIndexInput writes a distinctive byte pattern into an index-shaped
// buffer, parameterized by seed so different machines get different
// data.
func fillIndexInput(in *Buffers, seed int) {
	n := in.Procs()
	b := in.BlockLen()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			blk := in.Block(i, j)
			for x := 0; x < b; x++ {
				blk[x] = byte(seed + i*31 + j*7 + x)
			}
		}
	}
}

func fillConcatInput(in *Buffers, seed int) {
	n := in.Procs()
	b := in.BlockLen()
	for i := 0; i < n; i++ {
		blk := in.Block(i, 0)
		for x := 0; x < b; x++ {
			blk[x] = byte(seed + i*13 + x)
		}
	}
}

// TestPlanCacheIdentity: compiling the same configuration twice returns
// the same *Plan; changing any option, the group, or the block size
// misses the cache.
// compileAndRun is the uncached compile-per-call path the plan tests and
// benchmarks compare against.
func compileAndRun(e *mpsim.Engine, g *mpsim.Group, s collective.Spec, in, out *Buffers) (*Report, error) {
	s.BlockLen = in.BlockLen()
	pl, err := collective.Compile(e, g, s)
	if err != nil {
		return nil, err
	}
	return pl.Execute(in, out)
}

func TestPlanCacheIdentity(t *testing.T) {
	m := MustNewMachine(8)
	g, err := m.NewGroup([]int{1, 3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}

	base, err := m.CompileIndex(16, WithRadix(2))
	if err != nil {
		t.Fatal(err)
	}
	same, err := m.CompileIndex(16, WithRadix(2))
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Error("identical index configurations compiled to distinct plans (cache miss)")
	}
	for name, opts := range map[string][]CollectiveOption{
		"radix":     {WithRadix(4)},
		"algorithm": {WithIndexAlgorithm(IndexDirect)},
		"no-pack":   {WithRadix(2), WithoutPacking()},
		"group":     {WithRadix(2), OnGroup(g)},
	} {
		other, err := m.CompileIndex(16, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if other == base {
			t.Errorf("%s change hit the cache", name)
		}
	}
	if other, err := m.CompileIndex(32, WithRadix(2)); err != nil || other == base {
		t.Errorf("block-size change hit the cache (err %v)", err)
	}
	if mixed, err := m.CompileIndex(16, WithRadices([]int{2, 2, 2})); err != nil || mixed == base {
		t.Errorf("mixed-radix schedule hit the uniform cache entry (err %v)", err)
	}

	cbase, err := m.CompileConcat(16)
	if err != nil {
		t.Fatal(err)
	}
	if csame, err := m.CompileConcat(16); err != nil || csame != cbase {
		t.Errorf("identical concat configurations compiled to distinct plans (err %v)", err)
	}
	if cpol, err := m.CompileConcat(16, WithLastRoundPolicy(LastRoundMinVolume)); err != nil || cpol == cbase {
		t.Errorf("last-round policy change hit the cache (err %v)", err)
	}
	if calg, err := m.CompileConcat(16, WithConcatAlgorithm(ConcatRing)); err != nil || calg == cbase {
		t.Errorf("concat algorithm change hit the cache (err %v)", err)
	}
}

// TestFlatEntryPointsHitPlanCache: IndexFlat and ConcatFlat route
// through the same cache CompileIndex/CompileConcat populate — the
// "thin wrapper" property.
func TestFlatEntryPointsHitPlanCache(t *testing.T) {
	const n, b = 8, 8
	m := MustNewMachine(n)
	in, _ := NewIndexBuffers(n, b)
	out, _ := NewIndexBuffers(n, b)
	fillIndexInput(in, 1)
	if _, err := m.IndexFlat(in, out, WithRadix(2)); err != nil {
		t.Fatal(err)
	}
	cin, _ := NewConcatBuffers(n, b)
	cout, _ := NewIndexBuffers(n, b)
	fillConcatInput(cin, 2)
	if _, err := m.ConcatFlat(cin, cout); err != nil {
		t.Fatal(err)
	}
	cached := m.plans.Len()
	// Repeats of the same configurations must not add cache entries.
	if _, err := m.IndexFlat(in, out, WithRadix(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConcatFlat(cin, cout); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CompileIndex(b, WithRadix(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CompileConcat(b); err != nil {
		t.Fatal(err)
	}
	if got := m.plans.Len(); got != cached {
		t.Errorf("repeated calls grew the plan cache from %d to %d entries", cached, got)
	}
}

// TestPlanExecuteMatchesFlat: a reused plan produces byte-identical
// results and identical reports to the direct flat path, on both
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
				g := mpsim.WorldGroup(n)

				in, _ := NewIndexBuffers(n, b)
				fillIndexInput(in, n*int(k))
				pl, err := m.CompileIndex(b)
				if err != nil {
					t.Fatalf("CompileIndex(n=%d, k=%d, %s): %v", n, k, backend, err)
				}
				for rep := 0; rep < 2; rep++ { // reuse matters: run twice
					got, _ := NewIndexBuffers(n, b)
					want, _ := NewIndexBuffers(n, b)
					gotRep, err := pl.Execute(in, got)
					if err != nil {
						t.Fatalf("plan Execute(n=%d, k=%d, %s): %v", n, k, backend, err)
					}
					wantRep, err := compileAndRun(e, g, collective.Spec{Op: collective.OpIndex}, in, want)
					if err != nil {
						t.Fatalf("IndexFlat(n=%d, k=%d, %s): %v", n, k, backend, err)
					}
					if !got.Equal(want) {
						t.Fatalf("index n=%d k=%d %s: plan result differs from flat path", n, k, backend)
					}
					if gotRep.C1 != wantRep.C1 || gotRep.C2 != wantRep.C2 {
						t.Fatalf("index n=%d k=%d %s: plan report (%d, %d) != flat report (%d, %d)",
							n, k, backend, gotRep.C1, gotRep.C2, wantRep.C1, wantRep.C2)
					}
				}

				cin, _ := NewConcatBuffers(n, b)
				fillConcatInput(cin, n+int(k))
				cpl, err := m.CompileConcat(b)
				if err != nil {
					t.Fatalf("CompileConcat(n=%d, k=%d, %s): %v", n, k, backend, err)
				}
				got, _ := NewIndexBuffers(n, b)
				want, _ := NewIndexBuffers(n, b)
				gotRep, err := cpl.Execute(cin, got)
				if err != nil {
					t.Fatalf("concat plan Execute(n=%d, k=%d, %s): %v", n, k, backend, err)
				}
				wantRep, err := compileAndRun(e, g, collective.Spec{Op: collective.OpConcat}, cin, want)
				if err != nil {
					t.Fatalf("ConcatFlat(n=%d, k=%d, %s): %v", n, k, backend, err)
				}
				if !got.Equal(want) {
					t.Fatalf("concat n=%d k=%d %s: plan result differs from flat path", n, k, backend)
				}
				if gotRep.C1 != wantRep.C1 || gotRep.C2 != wantRep.C2 {
					t.Fatalf("concat n=%d k=%d %s: plan report (%d, %d) != flat report (%d, %d)",
						n, k, backend, gotRep.C1, gotRep.C2, wantRep.C1, wantRep.C2)
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
				lo := make([]int, n)
				hi := make([]int, n)
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

				ipl, err := m.CompileIndex(b, OnGroup(gLo))
				if err != nil {
					t.Fatalf("CompileIndex(n=%d, k=%d, %s): %v", n, k, backend, err)
				}
				cpl, err := m.CompileConcat(b, OnGroup(gHi))
				if err != nil {
					t.Fatalf("CompileConcat(n=%d, k=%d, %s): %v", n, k, backend, err)
				}

				iin, _ := NewIndexBuffers(n, b)
				fillIndexInput(iin, 3*n+k)
				cin, _ := NewConcatBuffers(n, b)
				fillConcatInput(cin, 5*n+k)

				// Sequential reference.
				iWant, _ := NewIndexBuffers(n, b)
				iRepWant, err := ipl.Execute(iin, iWant)
				if err != nil {
					t.Fatalf("sequential index (n=%d, k=%d, %s): %v", n, k, backend, err)
				}
				cWant, _ := NewIndexBuffers(n, b)
				cRepWant, err := cpl.Execute(cin, cWant)
				if err != nil {
					t.Fatalf("sequential concat (n=%d, k=%d, %s): %v", n, k, backend, err)
				}

				// Concurrent run.
				iGot, _ := NewIndexBuffers(n, b)
				cGot, _ := NewIndexBuffers(n, b)
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
				if !iGot.Equal(iWant) {
					t.Fatalf("n=%d k=%d %s: concurrent index bytes differ from sequential", n, k, backend)
				}
				if !cGot.Equal(cWant) {
					t.Fatalf("n=%d k=%d %s: concurrent concat bytes differ from sequential", n, k, backend)
				}
				if reps[0].C1 != iRepWant.C1 || reps[0].C2 != iRepWant.C2 {
					t.Fatalf("n=%d k=%d %s: concurrent index report (%d, %d) != sequential (%d, %d)",
						n, k, backend, reps[0].C1, reps[0].C2, iRepWant.C1, iRepWant.C2)
				}
				if reps[1].C1 != cRepWant.C1 || reps[1].C2 != cRepWant.C2 {
					t.Fatalf("n=%d k=%d %s: concurrent concat report (%d, %d) != sequential (%d, %d)",
						n, k, backend, reps[1].C1, reps[1].C2, cRepWant.C1, cRepWant.C2)
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
		pl, err := m.CompileIndex(b, OnGroup(g))
		if err != nil {
			t.Fatal(err)
		}
		in, _ := NewIndexBuffers(len(ids), b)
		out, _ := NewIndexBuffers(len(ids), b)
		if err := pl.Bind(in, out); err != nil {
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
	pl, err := m.CompileIndex(b)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := NewIndexBuffers(n, b)
	wrongN, _ := NewIndexBuffers(n+1, b)
	wrongB, _ := NewIndexBuffers(n, b+1)
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
// direct and xor plans replay their flat counterparts exactly.
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
			in, _ := NewIndexBuffers(n, b)
			fillIndexInput(in, 11)
			pl, err := m.CompileIndex(b, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := NewIndexBuffers(n, b)
			rep, err := pl.Execute(in, got)
			if err != nil {
				t.Fatal(err)
			}
			// The result must be the index permutation.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if !bytes.Equal(got.Block(i, j), in.Block(j, i)) {
						t.Fatalf("out[%d][%d] != in[%d][%d]", i, j, j, i)
					}
				}
			}
			// And a second execution must reproduce it with the same report.
			got2, _ := NewIndexBuffers(n, b)
			rep2, err := pl.Execute(in, got2)
			if err != nil {
				t.Fatal(err)
			}
			if !got2.Equal(got) || rep2.C1 != rep.C1 || rep2.C2 != rep.C2 {
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
	ins := make([]*Buffers, groups)
	outs := make([]*Buffers, groups)
	for gi := 0; gi < groups; gi++ {
		ids := make([]int, per)
		for i := range ids {
			ids[i] = gi*per + i
		}
		g, err := m.NewGroup(ids)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := m.CompileIndex(b, OnGroup(g), WithRadix(2))
		if err != nil {
			t.Fatal(err)
		}
		ins[gi], _ = NewIndexBuffers(per, b)
		outs[gi], _ = NewIndexBuffers(per, b)
		fillIndexInput(ins[gi], 100+gi)
		if err := pl.Bind(ins[gi], outs[gi]); err != nil {
			t.Fatal(err)
		}
		plans[gi] = pl
	}
	reps, err := m.RunPlans(plans)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := PredictIndex(per, b, 2, 1)
	for gi := 0; gi < groups; gi++ {
		for i := 0; i < per; i++ {
			for j := 0; j < per; j++ {
				if !bytes.Equal(outs[gi].Block(i, j), ins[gi].Block(j, i)) {
					t.Fatalf("group %d: out[%d][%d] wrong", gi, i, j)
				}
			}
		}
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
	g := mpsim.WorldGroup(n)
	pl, err := collective.CompileIndex(e, g, b, collective.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := buffers.New(n, n, b)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for x := 0; x < b; x++ {
				in.Block(i, j)[x] = byte(i*59 + j*17 + x)
			}
		}
	}
	out1, _ := buffers.New(n, n, b)
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

// TestLegacyEntryPointsStillCorrect spot-checks that the cache-routed
// legacy Index/Concat produce the defining permutations (the broad
// sweeps live in internal/collective; this guards the Machine wiring).
func TestLegacyEntryPointsStillCorrect(t *testing.T) {
	const n = 7
	m := MustNewMachine(n)
	in := make([][][]byte, n)
	for i := range in {
		in[i] = make([][]byte, n)
		for j := range in[i] {
			in[i][j] = []byte(fmt.Sprintf("B%d.%d", i, j))
		}
	}
	for rep := 0; rep < 2; rep++ { // second call exercises the cache hit
		out, _, err := m.Index(in, WithRadix(2))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !bytes.Equal(out[i][j], in[j][i]) {
					t.Fatalf("rep %d: out[%d][%d] = %q", rep, i, j, out[i][j])
				}
			}
		}
	}
	cin := make([][]byte, n)
	for i := range cin {
		cin[i] = []byte(fmt.Sprintf("C%d", i))
	}
	for rep := 0; rep < 2; rep++ {
		out, _, err := m.Concat(cin)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !bytes.Equal(out[i][j], cin[j]) {
					t.Fatalf("rep %d: concat out[%d][%d] = %q", rep, i, j, out[i][j])
				}
			}
		}
	}
}
