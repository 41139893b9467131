package mpsim_test

import (
	"testing"

	"bruck/internal/collective"
	"bruck/internal/mpsim"
)

// TestPlainEnginesBuildNoTransport pins why a plain machine has no
// transport to pick: on a plain engine a lone plan — copying less than
// the walk's split threshold or more — and a two-job ExecutePlans all
// run round-major, and none of them builds a transport. A chaos engine
// builds its own for the first plan it runs.
func TestPlainEnginesBuildNoTransport(t *testing.T) {
	const n = 16
	index := func(b int) collective.Spec {
		return collective.Spec{Op: collective.OpIndex, BlockLen: b, Index: collective.IndexOptions{Radix: 2}}
	}
	e := mpsim.MustNew(n)
	for _, b := range []int{64, 64 << 10} { // about 130 KB and 68 MB copied
		pl, err := collective.Compile(e, mpsim.WorldGroup(n), index(b))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := collective.Exercise(pl, collective.Labels); err != nil {
			t.Fatalf("index b=%d: %v", b, err)
		}
		if mpsim.TransportBuilt(e) {
			t.Fatalf("index b=%d on a plain engine built a transport", b)
		}
	}
	ids := mpsim.WorldGroup(n).IDs()
	var jobs []collective.Job
	for _, half := range [][]int{ids[:n/2], ids[n/2:]} {
		g, err := mpsim.NewGroup(half, n)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := collective.Compile(e, g, index(64))
		if err != nil {
			t.Fatal(err)
		}
		mem, err := pl.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pl.Fill(mem, collective.Labels)
		jobs = append(jobs, collective.Job{Plan: pl, Mem: mem})
	}
	if _, err := collective.ExecutePlans(e, jobs); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if err := j.Plan.Verify(j.Mem); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if mpsim.TransportBuilt(e) {
		t.Fatal("a two-job ExecutePlans on a plain engine built a transport")
	}
	chaotic := mpsim.MustNew(n, mpsim.WithChaos(mpsim.ChaosConfig{Seed: 1}))
	pl, err := collective.Compile(chaotic, mpsim.WorldGroup(n), index(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collective.Exercise(pl, collective.Labels); err != nil {
		t.Fatalf("index b=64 under chaos: %v", err)
	}
	if !mpsim.TransportBuilt(chaotic) {
		t.Fatal("a chaos engine ran a plan and built no transport")
	}
}
