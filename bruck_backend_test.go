package bruck

// Cross-backend equivalence: the paper's schedules are transport-
// agnostic, so the channel and slot transports must produce byte-
// identical Index/Concat results and identical (C1, C2) on
// every shape. This is the acceptance test of the transport
// abstraction.

import (
	"fmt"
	"testing"

	"bruck/internal/intmath"
)

// compareBackends runs op from in on a fresh chan and a fresh slot
// machine and requires identical bytes and (C1, C2).
func compareBackends(t *testing.T, k int, op Op, in *Buffers, opts ...CollectiveOption) {
	t.Helper()
	n, b := in.Procs(), in.BlockLen()
	var outs [2]*Buffers
	var reps [2]*Report
	for i, backend := range []Backend{BackendChan, BackendSlot} {
		m := MustNewMachine(n, Ports(k), WithTransport(backend))
		if m.Transport() != backend {
			t.Fatalf("Transport() = %q, want %q", m.Transport(), backend)
		}
		outs[i] = mustBuffers(t, n, n, b)
		reps[i] = mustRun(t, m, op, in, outs[i], opts...)
	}
	if !outs[0].Equal(outs[1]) {
		t.Fatalf("%v: chan and slot outputs differ", op)
	}
	if reps[0].C1 != reps[1].C1 || reps[0].C2 != reps[1].C2 {
		t.Fatalf("schedule differs: chan (C1=%d, C2=%d), slot (C1=%d, C2=%d)", reps[0].C1, reps[0].C2, reps[1].C1, reps[1].C2)
	}
}

// TestBackendEquivalenceIndexFlat sweeps n in 1..16 and k in {1,2,3}:
// IndexFlat must be byte-identical on the chan and slot transports.
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

// TestSlotBackendReusedMachine runs many consecutive operations of
// varying shapes on one slot-backend machine: pool reuse, drain and the
// per-pair slot rings all get exercised across run boundaries.
func TestSlotBackendReusedMachine(t *testing.T) {
	const n = 9
	m := MustNewMachine(n, Ports(2), WithTransport(BackendSlot))
	for _, blockLen := range []int{32, 1, 128, 8} {
		checkRun(t, m, Index, input(t, n, n, blockLen, 0), WithRadix(3))
		checkRun(t, m, Concat, input(t, n, 1, blockLen, 0))
	}
}
