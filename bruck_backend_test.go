package bruck

// Driver equivalence at the facade: a plain machine runs every plan as
// the round-major walk and moves no message through a transport, while
// a recording machine runs it on the engine — one goroutine per
// processor over the channel transport. The paper's schedules do not
// depend on how messages move, so the two must produce byte-identical
// Index/Concat results and identical (C1, C2) on every shape.

import (
	"fmt"
	"testing"

	"bruck/internal/collective"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// compareBackends runs op from in on a fresh plain machine and on a
// fresh recording one and requires identical bytes and (C1, C2).
func compareBackends(t *testing.T, k int, op Op, in *Buffers, opts ...CollectiveOption) {
	t.Helper()
	n, b := in.Procs(), in.BlockLen()
	recording := &Machine{
		engine: mpsim.MustNew(n, mpsim.Ports(k), mpsim.Record(true)),
		world:  mpsim.WorldGroup(n),
		plans:  collective.NewPlanCache(),
	}
	var outs [2]*Buffers
	var reps [2]*Report
	for i, m := range []*Machine{MustNewMachine(n, Ports(k)), recording} {
		outs[i] = mustBuffers(t, n, n, b)
		reps[i] = mustRun(t, m, op, in, outs[i], opts...)
	}
	if !outs[0].Equal(outs[1]) {
		t.Fatalf("%v: walk and engine outputs differ", op)
	}
	if reps[0].C1 != reps[1].C1 || reps[0].C2 != reps[1].C2 {
		t.Fatalf("schedule differs: walk (C1=%d, C2=%d), engine (C1=%d, C2=%d)", reps[0].C1, reps[0].C2, reps[1].C1, reps[1].C2)
	}
}

// TestBackendEquivalenceIndexFlat sweeps n in 1..16 and k in {1,2,3}:
// IndexFlat must be byte-identical on the walk and on the engine.
func TestBackendEquivalenceIndexFlat(t *testing.T) {
	const blockLen = 3
	for n := 1; n <= 16; n++ {
		for _, k := range []int{1, 2, 3} {
			if k > intmath.Max(1, n-1) {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				optSets := [][]CollectiveOption{nil}
				if n >= 2 {
					optSets = append(optSets, []CollectiveOption{WithRadix(2)}, []CollectiveOption{WithRadix(n)})
				}
				in := input(t, n, n, blockLen, 0)
				for _, opts := range optSets {
					compareBackends(t, k, Index, in, opts...)
				}
			})
		}
	}
}

// TestBackendEquivalenceConcatFlat is the concatenation counterpart of
// TestBackendEquivalenceIndexFlat, including the last-round policies
// whose partitioned areas produce mixed-size rounds.
func TestBackendEquivalenceConcatFlat(t *testing.T) {
	const blockLen = 3
	for n := 1; n <= 16; n++ {
		for _, k := range []int{1, 2, 3} {
			if k > intmath.Max(1, n-1) {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				in := input(t, n, 1, blockLen, 0)
				for _, opts := range [][]CollectiveOption{
					nil,
					{WithLastRoundPolicy(LastRoundMinRounds)},
					{WithLastRoundPolicy(LastRoundMinVolume)},
				} {
					compareBackends(t, k, Concat, in, opts...)
				}
			})
		}
	}
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
