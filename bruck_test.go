package bruck

import (
	"bytes"
	"testing"

	"bruck/internal/collective"
	"bruck/internal/lowerbound"
	"bruck/internal/partition"
)

// mustBuffers is NewBuffers that fails the test on error.
func mustBuffers(t testing.TB, procs, blocks, blockLen int) *Buffers {
	t.Helper()
	b, err := NewBuffers(procs, blocks, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fill writes a pattern, distinct per block and per seed, into b.
func fill(b *Buffers, seed int) *Buffers {
	for i := 0; i < b.Procs(); i++ {
		for j := 0; j < b.Blocks(); j++ {
			for x, blk := 0, b.Block(i, j); x < len(blk); x++ {
				blk[x] = byte(seed + i*31 + j*7 + x)
			}
		}
	}
	return b
}

// input is a filled procs x blocks Buffers.
func input(t testing.TB, procs, blocks, blockLen, seed int) *Buffers {
	t.Helper()
	return fill(mustBuffers(t, procs, blocks, blockLen), seed)
}

// mustRun is Machine.Run that fails the test on error.
func mustRun(t testing.TB, m *Machine, op Op, in, out any, opts ...CollectiveOption) *Report {
	t.Helper()
	rep, err := m.Run(op, in, out, opts...)
	if err != nil {
		t.Fatalf("Run(%v): %v", op, err)
	}
	return rep
}

type blocker interface{ Block(i, j int) []byte }

// checkIndex fails unless out.Block(i, j) = in.Block(j, i) on n ranks.
func checkIndex(t testing.TB, n int, in, out blocker) {
	t.Helper()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out.Block(i, j), in.Block(j, i)) {
				t.Fatalf("out[%d][%d] = %v, want in[%d][%d] = %v", i, j, out.Block(i, j), j, i, in.Block(j, i))
			}
		}
	}
}

// checkConcat fails unless out.Block(i, j) = in.Block(j, 0) on n ranks.
func checkConcat(t testing.TB, n int, in, out blocker) {
	t.Helper()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out.Block(i, j), in.Block(j, 0)) {
				t.Fatalf("out[%d][%d] = %v, want in[%d] = %v", i, j, out.Block(i, j), j, in.Block(j, 0))
			}
		}
	}
}

func TestMachineIndexDefault(t *testing.T) {
	m := MustNewMachine(8)
	in, out := input(t, 8, 8, 16, 0), mustBuffers(t, 8, 8, 16)
	rep := mustRun(t, m, Index, in, out)
	checkIndex(t, 8, in, out)
	if rep.C1 != 3 { // default radix k+1 = 2 on 8 processors
		t.Errorf("C1 = %d, want 3", rep.C1)
	}
}

func TestMachineIndexRadixTradeoff(t *testing.T) {
	m := MustNewMachine(16)
	in, out := input(t, 16, 16, 8, 0), mustBuffers(t, 16, 16, 8)
	fast := mustRun(t, m, Index, in, out, WithRadix(2))
	lean := mustRun(t, m, Index, in, out, WithRadix(16))
	if !(fast.C1 < lean.C1) {
		t.Errorf("r=2 C1 = %d should beat r=n C1 = %d", fast.C1, lean.C1)
	}
	if !(lean.C2 < fast.C2) {
		t.Errorf("r=n C2 = %d should beat r=2 C2 = %d", lean.C2, fast.C2)
	}
	// Report.Time orders consistently with the profile.
	if fast.Time(SP1) <= 0 || lean.Time(SP1) <= 0 {
		t.Error("model times must be positive")
	}
}

func TestMachineConcat(t *testing.T) {
	m := MustNewMachine(9, Ports(2))
	in, out := input(t, 9, 1, 2, 0), mustBuffers(t, 9, 9, 2)
	rep := mustRun(t, m, Concat, in, out)
	checkConcat(t, 9, in, out)
	if want := lowerbound.ConcatRounds(9, 2); rep.C1 != want {
		t.Errorf("C1 = %d, want optimal %d", rep.C1, want)
	}
	if want := lowerbound.ConcatVolume(9, 2, 2); rep.C2 != want {
		t.Errorf("C2 = %d, want optimal %d", rep.C2, want)
	}
}

func TestMachineSubgroup(t *testing.T) {
	m := MustNewMachine(10)
	g, err := m.NewGroup([]int{9, 0, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	in, out := input(t, 4, 4, 4, 0), mustBuffers(t, 4, 4, 4)
	mustRun(t, m, Index, in, out, OnGroup(g), WithRadix(2))
	checkIndex(t, 4, in, out)
}

// TestMachineReusedAcrossShapes runs many consecutive operations of
// varying shapes on one machine: the walk's free lists and the plan
// cache get exercised across run boundaries.
func TestMachineReusedAcrossShapes(t *testing.T) {
	const n = 9
	m := MustNewMachine(n, Ports(2))
	for _, blockLen := range []int{32, 1, 128, 8} {
		checkRun(t, m, Index, input(t, n, n, blockLen, 0), WithRadix(3))
		checkRun(t, m, Concat, input(t, n, 1, blockLen, 0))
	}
}

// TestMachinePrimitives: each one-to-all primitive takes its root's
// side as a one-processor Buffers and the members' side as n x 1.
func TestMachinePrimitives(t *testing.T) {
	const n, b = 7, 22
	m := MustNewMachine(n, Ports(2))
	data := input(t, 1, 1, b, 5)
	members := mustBuffers(t, n, 1, b)
	rep := mustRun(t, m, Broadcast, data, members, Root(3))
	for i := 0; i < n; i++ {
		if !bytes.Equal(members.Block(i, 0), data.Block(0, 0)) {
			t.Fatalf("member %d got %v", i, members.Block(i, 0))
		}
	}
	if want := lowerbound.ConcatRounds(n, 2); rep.C1 != want {
		t.Errorf("broadcast C1 = %d, want %d", rep.C1, want)
	}

	blocks, atRoot := input(t, n, 1, b, 9), mustBuffers(t, 1, n, b)
	mustRun(t, m, Gather, blocks, atRoot)
	scattered := mustBuffers(t, n, 1, b)
	mustRun(t, m, Scatter, atRoot, scattered, Root(2))
	for i := 0; i < n; i++ {
		if !bytes.Equal(atRoot.Block(0, i), blocks.Block(i, 0)) || !bytes.Equal(scattered.Block(i, 0), blocks.Block(i, 0)) {
			t.Fatalf("block %d: gathered %v, scattered %v, want %v", i, atRoot.Block(0, i), scattered.Block(i, 0), blocks.Block(i, 0))
		}
	}
}

func TestMachineConcatBaselines(t *testing.T) {
	m := MustNewMachine(8)
	in := input(t, 8, 1, 1, 0)
	for _, alg := range []struct {
		name string
		opt  CollectiveOption
	}{
		{"folklore", WithConcatAlgorithm(ConcatFolklore)},
		{"ring", WithConcatAlgorithm(ConcatRing)},
		{"recdbl", WithConcatAlgorithm(ConcatRecursiveDoubling)},
	} {
		out := mustBuffers(t, 8, 8, 1)
		mustRun(t, m, Concat, in, out, alg.opt)
		checkConcat(t, 8, in, out)
	}
}

// TestPredictMatchesReport: the measured (C1, C2) equal the closed forms
// of Sections 3 and 4.
func TestPredictMatchesReport(t *testing.T) {
	const n, b, r, k = 16, 8, 4, 2
	m := MustNewMachine(n, Ports(k))
	rep := mustRun(t, m, Index, input(t, n, n, b, 0), mustBuffers(t, n, n, b), WithRadix(r))
	if c1, c2 := collective.IndexCost(n, b, r, k); rep.C1 != c1 || rep.C2 != c2 {
		t.Errorf("report (%d, %d), prediction (%d, %d)", rep.C1, rep.C2, c1, c2)
	}
	crep := mustRun(t, m, Concat, mustBuffers(t, n, 1, b), mustBuffers(t, n, n, b))
	cc1, cc2, err := collective.ConcatCost(n, b, k, partition.PreferOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if crep.C1 != cc1 || crep.C2 != cc2 {
		t.Errorf("concat report (%d, %d), prediction (%d, %d)", crep.C1, crep.C2, cc1, cc2)
	}
}

func TestOptimalRadixEndpoints(t *testing.T) {
	if r := OptimalRadix(SP1, 64, 1, 1, true); r != 2 {
		t.Errorf("tiny blocks: optimal radix %d, want 2", r)
	}
	rBig := OptimalRadix(SP1, 64, 8192, 1, true)
	if rBig < 32 {
		t.Errorf("huge blocks: optimal radix %d, want near n", rBig)
	}
}

// TestModelPanicsOnZeroPorts: the closed forms advance k digits a round,
// so k < 1 would never end; each entry point panics at once with the
// model function's out-of-domain text.
func TestModelPanicsOnZeroPorts(t *testing.T) {
	for _, c := range []struct {
		call func()
		want string
	}{
		{func() { collective.IndexCost(64, 8, 2, 0) }, "collective: IndexSchedule(64, 2, 0) out of domain: k < 1"},
		{func() { OptimalRadix(SP1, 64, 8, 0, false) }, "collective: IndexSchedule(64, 2, 0) out of domain: k < 1"},
		{func() { OptimalRadixSchedule(SP1, 64, 8, -1) }, "collective: OptimalRadixSchedule(64, 8, -1) out of domain: k < 1"},
		{func() { collective.IndexMixedCost(64, 8, []int{4, 4, 4}, 0) }, "collective: IndexMixedSchedule(64, [4 4 4], 0) out of domain: k < 1"},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic %v, want %q", got, c.want)
				}
			}()
			c.call()
		}()
	}
}

func TestNewMachineErrors(t *testing.T) {
	if _, err := NewMachine(0); err == nil {
		t.Error("NewMachine(0) accepted")
	}
	if _, err := NewMachine(4, Ports(4)); err == nil {
		t.Error("k = n accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewMachine(0) did not panic")
		}
	}()
	MustNewMachine(0)
}

func TestMachineIndexMixedRadices(t *testing.T) {
	const n, b = 30, 64
	m := MustNewMachine(n)
	in, out := input(t, n, n, b, 0), mustBuffers(t, n, n, b)
	radices := OptimalRadixSchedule(SP1, n, b, 1)
	rep := mustRun(t, m, Index, in, out, WithRadices(radices))
	checkIndex(t, n, in, out)
	if c1, c2 := collective.IndexMixedCost(n, b, radices, 1); rep.C1 != c1 || rep.C2 != c2 {
		t.Errorf("report (%d, %d), prediction (%d, %d)", rep.C1, rep.C2, c1, c2)
	}
	// Never worse than the best uniform radix under the model.
	rBest := OptimalRadix(SP1, n, b, 1, false)
	uc1, uc2 := collective.IndexCost(n, b, rBest, 1)
	if rep.Time(SP1) > SP1.Time(uc1, uc2)+1e-12 {
		t.Errorf("mixed schedule (%v) worse than uniform r=%d", radices, rBest)
	}
}

func TestCriticalPathTime(t *testing.T) {
	const n, b = 16, 32
	// Symmetric schedule (Bruck index): the critical path equals the
	// linear-model time.
	pl, err := MustNewMachine(n).Compile(Index, mustBuffers(t, n, n, b), WithRadix(2))
	if err != nil {
		t.Fatal(err)
	}
	if cp := pl.CriticalPath(SP1); cp-pl.Time(SP1) > 1e-12 || cp-pl.Time(SP1) < -1e-12 {
		t.Errorf("index critical path %g != linear %g", cp, pl.Time(SP1))
	}

	// Skewed schedule: the folklore gather on a NON-power-of-two size
	// has truncated subtrees whose senders run ahead of the root, so
	// the critical path is strictly cheaper than the round-max linear
	// estimate. (For powers of two the folklore tree is perfectly
	// balanced and the two estimates agree.)
	pl, err = MustNewMachine(11).Compile(Concat, mustBuffers(t, 11, 1, b), WithConcatAlgorithm(ConcatFolklore))
	if err != nil {
		t.Fatal(err)
	}
	if cp := pl.CriticalPath(SP1); cp >= pl.Time(SP1) {
		t.Errorf("folklore critical path %g should be below linear %g", cp, pl.Time(SP1))
	}
	// Zero-length blocks are legal: only start-ups are charged.
	pl, err = MustNewMachine(4).Compile(Concat, mustBuffers(t, 4, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cp := pl.CriticalPath(SP1); cp-pl.Time(SP1) > 1e-12 || cp-pl.Time(SP1) < -1e-12 {
		t.Errorf("zero-length concat critical path %g != linear %g", cp, pl.Time(SP1))
	}
}

func TestWithoutPackingAblation(t *testing.T) {
	m := MustNewMachine(8)
	in, out := input(t, 8, 8, 4, 0), mustBuffers(t, 8, 8, 4)
	packed := mustRun(t, m, Index, in, out, WithRadix(2))
	unpacked := mustRun(t, m, Index, in, out, WithRadix(2), WithoutPacking())
	checkIndex(t, 8, in, out)
	if unpacked.C1 <= packed.C1 {
		t.Errorf("packing ablation should cost rounds: %d vs %d", unpacked.C1, packed.C1)
	}
}
