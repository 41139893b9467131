package bruck

// Chaos at the facade: chaos delays only when messages move, so every
// collective — across all five schedule families — must produce
// byte-identical results and identical (C1, C2) under chaos as on a
// plain machine. Why no timing can change a Check-clean program's bytes
// is argued once, in internal/mpsim's package documentation; the sweep
// below is the facade's end-to-end instance of it, one seed per shape.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"bruck/internal/intmath"
)

// chaosSweepConfig returns the chaos configuration the equivalence
// sweep runs against the plain baseline: stragglers at rank 0 and the
// middle rank. MaxDelay is kept small so the full sweep stays fast; the
// jitter path is identical at any ceiling.
func chaosSweepConfig(n int) ChaosConfig {
	var stragglers []int
	if n > 1 {
		stragglers = []int{0, n / 2}
	}
	return ChaosConfig{Seed: 1, MaxDelay: 20 * time.Microsecond, Stragglers: stragglers}
}

// chaosRaggedInput builds a deterministic skewed n x n ragged matrix.
func chaosRaggedInput(n, maxLen int) [][][]byte {
	in := make([][][]byte, n)
	for i := range in {
		in[i] = make([][]byte, n)
		for j := range in[i] {
			blk := make([]byte, (i*7+j*3+i*j)%(maxLen+1))
			for x := range blk {
				blk[x] = byte(i*131 + j*31 + x*7)
			}
			in[i][j] = blk
		}
	}
	return in
}

// chaosOps enumerates the five schedule families of the sweep. Each
// runs on the machine it is given and returns the output as a block
// matrix plus its Report.
var chaosOps = []struct {
	name string
	run  func(t *testing.T, m *Machine) ([][][]byte, *Report)
}{
	{"IndexFlat", func(t *testing.T, m *Machine) ([][][]byte, *Report) {
		n := m.N()
		out := mustBuffers(t, n, n, 3)
		rep := mustRun(t, m, Index, input(t, n, n, 3, 0), out)
		return out.ToMatrix(), rep
	}},
	{"ConcatFlat", func(t *testing.T, m *Machine) ([][][]byte, *Report) {
		n := m.N()
		out := mustBuffers(t, n, n, 3)
		rep := mustRun(t, m, Concat, input(t, n, 1, 3, 0), out)
		return out.ToMatrix(), rep
	}},
	{"IndexV", func(t *testing.T, m *Machine) ([][][]byte, *Report) {
		_, out, rep := mustRagged(t, m, Index, chaosRaggedInput(m.N(), 4))
		return out.ToMatrix(), rep
	}},
	{"ConcatV", func(t *testing.T, m *Machine) ([][][]byte, *Report) {
		in := make([][]byte, m.N())
		for i := range in {
			in[i] = make([]byte, (i*5+3)%7)
			for x := range in[i] {
				in[i][x] = byte(i*131 + x*7)
			}
		}
		_, out, rep := mustRagged(t, m, Concat, [][][]byte{in})
		return out.ToMatrix(), rep
	}},
	{"AllReduce", func(t *testing.T, m *Machine) ([][][]byte, *Report) {
		n := m.N()
		out := mustBuffers(t, n, n, 4)
		rep := mustRun(t, m, AllReduce, input(t, n, n, 4, 0), out, WithKernel(ReduceSum, Int32))
		return out.ToMatrix(), rep
	}},
}

// TestChaosEquivalenceSweep: every schedule family, n = 1..16,
// k = 1..3, under chaos with two stragglers — byte-identical outputs and
// identical (C1, C2) against the plain baseline.
func TestChaosEquivalenceSweep(t *testing.T) {
	for _, op := range chaosOps {
		op := op
		t.Run(op.name, func(t *testing.T) {
			for n := 1; n <= 16; n++ {
				for _, k := range []int{1, 2, 3} {
					if k > intmath.Max(1, n-1) {
						continue
					}
					t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
						base, baseRep := op.run(t, MustNewMachine(n, Ports(k)))
						got, gotRep := op.run(t, MustNewMachine(n, Ports(k), WithChaos(chaosSweepConfig(n))))
						if gotRep.C1 != baseRep.C1 || gotRep.C2 != baseRep.C2 {
							t.Fatalf("chaos: (C1=%d, C2=%d), plain (C1=%d, C2=%d)", gotRep.C1, gotRep.C2, baseRep.C1, baseRep.C2)
						}
						if len(got) != len(base) {
							t.Fatalf("chaos: %d procs, plain %d", len(got), len(base))
						}
						for i := range base {
							for j := range base[i] {
								if !bytes.Equal(got[i][j], base[i][j]) {
									t.Fatalf("chaos: out[%d][%d] = %v, plain %v", i, j, got[i][j], base[i][j])
								}
							}
						}
					})
				}
			}
		})
	}
}

// TestChaosMachineBasics: the zero ChaosConfig selects the defaults,
// and a chaos machine's repeated operations stay correct (plan cache
// and transport reuse under jitter).
func TestChaosMachineBasics(t *testing.T) {
	m := MustNewMachine(6, Ports(2), WithChaos(ChaosConfig{}))
	in, want := input(t, 6, 6, 3, 0), mustBuffers(t, 6, 6, 3)
	mustRun(t, m, Index, in, want)
	for rep := 0; rep < 3; rep++ {
		out := mustBuffers(t, 6, 6, 3)
		mustRun(t, m, Index, in, out)
		if !out.Equal(want) {
			t.Fatalf("rep %d: repeated chaos execution changed the result", rep)
		}
	}
}

// TestChaosMachineKeepsItsOwnStragglers: a machine's chaos keeps the
// straggler list it was given, so editing the caller's slice afterwards
// changes nothing — not even the transport the engine builds after a
// failed run, which would panic on an edited, out-of-range rank.
func TestChaosMachineKeepsItsOwnStragglers(t *testing.T) {
	cfg := ChaosConfig{Seed: 3, Stragglers: []int{1}}
	m := MustNewMachine(4, WithChaos(cfg))
	cfg.Stragglers[0] = 9
	in := input(t, 4, 4, 4, 0)
	boom := func(dst, src []byte) { panic("boom") }
	if _, err := m.Run(AllReduce, in, mustBuffers(t, 4, 4, 4), WithCombine(boom)); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("an allreduce whose combine panics: %v, want the panic", err)
	}
	out := mustBuffers(t, 4, 4, 4)
	mustRun(t, m, AllReduce, in, out, WithKernel(ReduceSum, Int32))
	want := mustBuffers(t, 4, 4, 4)
	mustRun(t, MustNewMachine(4), AllReduce, in, want, WithKernel(ReduceSum, Int32))
	if !out.Equal(want) {
		t.Fatal("the allreduce after the failed run differs from a plain machine's")
	}
}
