package bruck

// Chaos equivalence: the chaos transport perturbs only timing, so every
// collective — across all five schedule families — must produce
// byte-identical results and identical (C1, C2) under chaos as on a
// plain machine, for every shape and seed. This is the acceptance test
// of the chaos wrapper.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bruck/internal/intmath"
)

// chaosSweepConfigs returns the chaos configurations the equivalence
// sweep runs against the plain baseline: two seeds, stragglers at rank
// 0 and the middle rank. MaxDelay is kept
// small so the full sweep stays fast; the jitter path is identical at
// any ceiling.
func chaosSweepConfigs(n int) []ChaosConfig {
	var stragglers []int
	if n > 1 {
		stragglers = []int{0, n / 2}
	}
	return []ChaosConfig{
		{Seed: 1, MaxDelay: 20 * time.Microsecond, Stragglers: stragglers},
		{Seed: 0xbad5eed, MaxDelay: 20 * time.Microsecond, Stragglers: stragglers},
	}
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
// k = 1..3, two chaos seeds — byte-identical outputs and identical
// (C1, C2) against the plain baseline.
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
						for _, cfg := range chaosSweepConfigs(n) {
							got, gotRep := op.run(t, MustNewMachine(n, Ports(k), WithChaos(cfg)))
							if gotRep.C1 != baseRep.C1 || gotRep.C2 != baseRep.C2 {
								t.Fatalf("chaos(seed %d): (C1=%d, C2=%d), plain (C1=%d, C2=%d)",
									cfg.Seed, gotRep.C1, gotRep.C2, baseRep.C1, baseRep.C2)
							}
							if len(got) != len(base) {
								t.Fatalf("chaos(seed %d): %d procs, plain %d", cfg.Seed, len(got), len(base))
							}
							for i := range base {
								for j := range base[i] {
									if !bytes.Equal(got[i][j], base[i][j]) {
										t.Fatalf("chaos(seed %d): out[%d][%d] = %v, plain %v",
											cfg.Seed, i, j, got[i][j], base[i][j])
									}
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
