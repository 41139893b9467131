package bruck

// Public-API coverage of the two-level topology surface: WithTopology
// machines, forced Hierarchical() schedules, the topology-aware
// WithAuto dispatch with its memoized verdict, per-level Reports and
// the topology-priced critical path.

import (
	"bytes"
	"strings"
	"testing"
)

// topo4x4 is the canonical 10:1 test machine: four nodes of four
// processors, intra links at SP1, inter links ten times slower.
func topo4x4(t *testing.T) *Topology {
	t.Helper()
	topo, err := ParseTopology("4x4")
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyMachineHierIndex(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))
	if m.Topology() != topo {
		t.Fatal("Topology() should return the attached topology")
	}
	in := indexInput(16, 8)
	out, rep, err := m.Index(in, Hierarchical())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("out[%d][%d] != in[%d][%d]", i, j, j, i)
			}
		}
	}
	if rep.Intra == nil || rep.Inter == nil {
		t.Fatal("hierarchical Report must carry the per-level split")
	}
	if rep.Intra.C1+rep.Inter.C1 != rep.C1 {
		t.Errorf("level C1 split %d+%d != total %d", rep.Intra.C1, rep.Inter.C1, rep.C1)
	}
	if rep.Intra.C2+rep.Inter.C2 != rep.C2 {
		t.Errorf("level C2 split %d+%d != total %d", rep.Intra.C2, rep.Inter.C2, rep.C2)
	}
	if rep.TimeTopo(topo) <= 0 {
		t.Error("topology-priced time must be positive")
	}
}

func TestTopologyMachineHierConcat(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))
	in := make([][]byte, 16)
	for i := range in {
		in[i] = []byte{byte(i), byte(i * 3), byte(255 - i)}
	}
	out, rep, err := m.Concat(in, Hierarchical())
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		for j := range out[i] {
			if !bytes.Equal(out[i][j], in[j]) {
				t.Fatalf("out[%d][%d] wrong", i, j)
			}
		}
	}
	if rep.Intra == nil || rep.Inter == nil {
		t.Fatal("hierarchical Report must carry the per-level split")
	}
}

func TestTopologyMachineHierAllReduce(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))
	n, b := 16, 8
	in, _ := NewIndexBuffers(n, b)
	out, _ := NewIndexBuffers(n, b)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			PutInt32s(in.Block(i, j), []int32{int32(i*31 + j), int32(i - 2*j)})
		}
	}
	rep, err := m.AllReduceFlat(in, out, WithKernel(ReduceSum, Int32), Hierarchical())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		var s0, s1 int32
		for p := 0; p < n; p++ {
			s0 += int32(p*31 + j)
			s1 += int32(p - 2*j)
		}
		for i := 0; i < n; i++ {
			got := Int32s(out.Block(i, j))
			if got[0] != s0 || got[1] != s1 {
				t.Fatalf("rank %d chunk %d: got (%d,%d), want (%d,%d)", i, j, got[0], got[1], s0, s1)
			}
		}
	}
	if rep.Intra == nil || rep.Inter == nil {
		t.Fatal("hierarchical Report must carry the per-level split")
	}
}

func TestTopologyAutoPicksHierarchicalAndMemoizes(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))

	// Latency-dominated shape: on a 10:1 machine the hierarchical
	// schedule's cheap intra rounds beat any flat schedule, whose every
	// round pays the inter profile.
	pl, err := m.CompileIndex(1, WithAuto(SP1))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Hierarchical() {
		t.Fatal("auto dispatch on a 10:1 4x4 machine should pick the hierarchical index")
	}
	for _, r := range []int{2, 4, 16} {
		flat, err := m.CompileIndex(1, WithRadix(r))
		if err != nil {
			t.Fatal(err)
		}
		if pl.TimeTopo(topo) >= flat.TimeTopo(topo) {
			t.Errorf("hier time %g should beat flat radix-%d time %g",
				pl.TimeTopo(topo), r, flat.TimeTopo(topo))
		}
	}
	again, err := m.CompileIndex(1, WithAuto(SP1))
	if err != nil {
		t.Fatal(err)
	}
	if again != pl {
		t.Error("repeated auto call should hit the memoized verdict")
	}

	cpl, err := m.CompileConcat(1, WithAuto(SP1))
	if err != nil {
		t.Fatal(err)
	}
	if !cpl.Hierarchical() {
		t.Fatal("auto dispatch on a 10:1 4x4 machine should pick the hierarchical concatenation")
	}
	if again, err := m.CompileConcat(1, WithAuto(SP1)); err != nil || again != cpl {
		t.Errorf("repeated concat auto call should hit the memoized verdict (err %v)", err)
	}

	// The reduction dispatch must return the modeled winner and memoize
	// it; whether that winner is hierarchical depends on the vector
	// size, so assert optimality against the hierarchical candidate
	// rather than a fixed shape.
	rpl, err := m.CompileReduce(AllReduceKind, 4, WithAuto(SP1), WithKernel(ReduceSum, Int32))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := m.CompileReduce(AllReduceKind, 4, WithKernel(ReduceSum, Int32), Hierarchical())
	if err != nil {
		t.Fatal(err)
	}
	if rpl.TimeTopo(topo) > hier.TimeTopo(topo) {
		t.Errorf("auto winner time %g must not lose to the hierarchical candidate %g",
			rpl.TimeTopo(topo), hier.TimeTopo(topo))
	}
	if again, err := m.CompileReduce(AllReduceKind, 4, WithAuto(SP1), WithKernel(ReduceSum, Int32)); err != nil || again != rpl {
		t.Errorf("repeated reduce auto call should hit the memoized verdict (err %v)", err)
	}
}

func TestTopologyAutoExecutesCorrectly(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))
	in := indexInput(16, 1)
	out, rep, err := m.Index(in, WithAuto(SP1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("out[%d][%d] != in[%d][%d]", i, j, j, i)
			}
		}
	}
	if rep.Intra == nil {
		t.Error("the auto winner here is hierarchical, so the Report must split per level")
	}
}

func TestTopologyValidation(t *testing.T) {
	topo := topo4x4(t)
	if _, err := NewMachine(8, WithTopology(topo)); err == nil {
		t.Error("topology for 16 processors on an 8-processor machine must be rejected")
	}
	m := MustNewMachine(16)
	if _, err := m.CompileIndex(4, Hierarchical()); err == nil ||
		!strings.Contains(err.Error(), "WithTopology") {
		t.Errorf("Hierarchical without WithTopology should fail clearly, got %v", err)
	}
	mt := MustNewMachine(16, WithTopology(topo))
	if _, err := mt.CompileReduce(ReduceScatterKind, 4, WithKernel(ReduceSum, Int32), Hierarchical()); err == nil {
		t.Error("hierarchical reduce-scatter is unsupported and must error")
	}
}

func TestTopologyCriticalPath(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo), RecordEvents())
	in := indexInput(16, 4)
	if _, _, err := m.Index(in, Hierarchical()); err != nil {
		t.Fatal(err)
	}
	ct, err := m.CriticalPathTopoTime()
	if err != nil {
		t.Fatal(err)
	}
	if ct <= 0 {
		t.Fatal("topology critical path must be positive")
	}
	// Pricing the same events with every link at the inter profile must
	// not be cheaper: the topology clock runs the intra phases faster.
	flat, err := m.CriticalPathTime(ScaledProfile(SP1, DefaultInterRatio))
	if err != nil {
		t.Fatal(err)
	}
	if ct > flat {
		t.Errorf("topology critical path %g should not exceed all-inter pricing %g", ct, flat)
	}

	flatOnly := MustNewMachine(16)
	if _, err := flatOnly.CriticalPathTopoTime(); err == nil {
		t.Error("CriticalPathTopoTime without WithTopology must error")
	}
}

// TestHierarchicalReduceKeysOnKind: a hierarchical reduce-scatter is
// rejected with the one pinned error whether or not the hierarchical
// allreduce of the same shape is already cached. (The cache key used to
// drop the kind, so the warm call was served the allreduce plan.)
func TestHierarchicalReduceKeysOnKind(t *testing.T) {
	const want = "collective: hierarchical reduction supports AllReduceKind only, got reduce-scatter"
	m := MustNewMachine(16, WithTopology(topo4x4(t)))
	opts := []CollectiveOption{Hierarchical(), WithKernel(ReduceSum, Int32)}
	for _, state := range []string{"cold", "warm"} {
		if _, err := m.CompileReduce(ReduceScatterKind, 64, opts...); err == nil || err.Error() != want {
			t.Errorf("%s cache: error = %v, want %q", state, err, want)
		}
		if _, err := m.CompileReduce(AllReduceKind, 64, opts...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTopologyAutoKeysOnLastRoundPolicy: in the special range the
// last-round policy changes the flat circulant candidate, so two auto
// calls differing only in the policy are two verdicts. (The verdict key
// used to drop the policy, so the second call was served the first
// call's plan.)
func TestTopologyAutoKeysOnLastRoundPolicy(t *testing.T) {
	topo, err := NewTopology([]int{2, 2}, SP1, ScaledProfile(SP1, 1.01))
	if err != nil {
		t.Fatal(err)
	}
	m := MustNewMachine(4, Ports(2), WithTopology(topo))
	for _, tc := range []struct {
		policy CollectiveOption
		c1, c2 int
	}{
		{WithLastRoundPolicy(LastRoundMinRounds), 2, 6},
		{WithLastRoundPolicy(LastRoundMinVolume), 2, 5},
	} {
		pl, err := m.CompileConcat(3, WithAuto(SP1), tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Rounds() != tc.c1 || pl.PredictedC2() != tc.c2 {
			t.Errorf("(C1, C2) = (%d, %d), want (%d, %d)", pl.Rounds(), pl.PredictedC2(), tc.c1, tc.c2)
		}
	}
}
