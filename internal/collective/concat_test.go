package collective

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// genConcatInput builds n distinct blocks of blockLen bytes.
func genConcatInput(n, blockLen int) [][]byte {
	in := make([][]byte, n)
	for i := 0; i < n; i++ {
		blk := make([]byte, blockLen)
		for x := range blk {
			blk[x] = byte(i*37 + x*11 + 5)
		}
		in[i] = blk
	}
	return in
}

func checkConcat(t *testing.T, in [][]byte, out [][][]byte, tag string) {
	t.Helper()
	n := len(in)
	if len(out) != n {
		t.Fatalf("%s: out has %d members, want %d", tag, len(out), n)
	}
	for i := 0; i < n; i++ {
		if len(out[i]) != n {
			t.Fatalf("%s: out[%d] has %d blocks, want %d", tag, i, len(out[i]), n)
		}
		for j := 0; j < n; j++ {
			if !bytes.Equal(out[i][j], in[j]) {
				t.Fatalf("%s: out[%d][%d] != B[%d]", tag, i, j, j)
			}
		}
	}
}

func runConcat(t *testing.T, n, blockLen, k int, opt ConcatOptions) *Result {
	t.Helper()
	e := mpsim.MustNew(n, mpsim.Ports(k))
	in := genConcatInput(n, blockLen)
	out, res, err := concatSlices(e, mpsim.WorldGroup(n), in, opt)
	if err != nil {
		t.Fatalf("Concat(n=%d, b=%d, k=%d, %+v): %v", n, blockLen, k, opt, err)
	}
	checkConcat(t, in, out, fmt.Sprintf("n=%d b=%d k=%d alg=%v", n, blockLen, k, opt.Algorithm))
	return res
}

// TestCirculantConcatOnePortSweep: correctness and exact optimality at
// k = 1 (always optimal per Theorem 4.3 since k = 1 is outside the
// special range).
func TestCirculantConcatOnePortSweep(t *testing.T) {
	const b = 5
	for n := 1; n <= 34; n++ {
		res := runConcat(t, n, b, 1, ConcatOptions{Algorithm: ConcatCirculant})
		if n == 1 {
			if res.C1 != 0 {
				t.Errorf("n=1: C1 = %d", res.C1)
			}
			continue
		}
		if want := lowerbound.ConcatRounds(n, 1); res.C1 != want {
			t.Errorf("n=%d: C1 = %d, want optimal %d", n, res.C1, want)
		}
		if want := lowerbound.ConcatVolume(n, b, 1); res.C2 != want {
			t.Errorf("n=%d: C2 = %d, want optimal %d", n, res.C2, want)
		}
	}
}

// TestCirculantConcatKPortSweep: correctness for multiport systems and
// agreement with the closed form.
func TestCirculantConcatKPortSweep(t *testing.T) {
	for _, tc := range []struct{ n, k, b int }{
		{9, 2, 3}, {8, 2, 4}, {16, 3, 2}, {27, 2, 5}, {10, 3, 1},
		{13, 3, 2}, {64, 3, 2}, {25, 4, 2}, {12, 2, 7}, {7, 5, 3},
		{6, 4, 2}, {5, 3, 3},
	} {
		res := runConcat(t, tc.n, tc.b, tc.k, ConcatOptions{Algorithm: ConcatCirculant})
		wantC1, wantC2, err := ConcatCost(tc.n, tc.b, tc.k, partition.PreferOptimal)
		if err != nil {
			t.Fatalf("ConcatCost: %v", err)
		}
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("n=%d k=%d b=%d: measured (C1=%d, C2=%d), closed form (%d, %d)",
				tc.n, tc.k, tc.b, res.C1, res.C2, wantC1, wantC2)
		}
	}
}

// TestConcatOptimalityTheorem43: outside the special range the
// circulant algorithm attains both lower bounds exactly.
func TestConcatOptimalityTheorem43(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for n := k + 2; n <= 70; n++ {
			for _, b := range []int{1, 2, 4} {
				if partition.InSpecialRange(n, b, k) {
					continue
				}
				res := runConcat(t, n, b, k, ConcatOptions{Algorithm: ConcatCirculant})
				if want := lowerbound.ConcatRounds(n, k); res.C1 != want {
					t.Errorf("n=%d k=%d b=%d: C1 = %d, want optimal %d", n, k, b, res.C1, want)
				}
				if want := lowerbound.ConcatVolume(n, b, k); res.C2 != want {
					t.Errorf("n=%d k=%d b=%d: C2 = %d, want optimal %d", n, k, b, res.C2, want)
				}
			}
		}
	}
}

// TestConcatSpecialRangePolicies: inside the special range the two
// fallbacks hit their advertised trade-offs (Section 4 Remark).
func TestConcatSpecialRangePolicies(t *testing.T) {
	tested := 0
	for k := 3; k <= 4; k++ {
		for n := k + 2; n <= 80; n++ {
			for _, b := range []int{3, 4, 5} {
				if !partition.InSpecialRange(n, b, k) {
					continue
				}
				d := intmath.CeilLog(k+1, n)
				n1 := intmath.Pow(k+1, d-1)
				if partition.OptimalExists(b, n-n1, n1, k) {
					continue // optimal achievable anyway
				}
				tested++
				c1LB := lowerbound.ConcatRounds(n, k)
				c2LB := lowerbound.ConcatVolume(n, b, k)

				resRounds := runConcat(t, n, b, k, ConcatOptions{
					Algorithm: ConcatCirculant, LastRound: partition.MinRounds})
				if resRounds.C1 != c1LB {
					t.Errorf("n=%d k=%d b=%d MinRounds: C1 = %d, want %d", n, k, b, resRounds.C1, c1LB)
				}
				if resRounds.C2 > c2LB+b-1 {
					t.Errorf("n=%d k=%d b=%d MinRounds: C2 = %d exceeds bound %d",
						n, k, b, resRounds.C2, c2LB+b-1)
				}

				resVolume := runConcat(t, n, b, k, ConcatOptions{
					Algorithm: ConcatCirculant, LastRound: partition.MinVolume})
				if resVolume.C1 > c1LB+1 {
					t.Errorf("n=%d k=%d b=%d MinVolume: C1 = %d exceeds %d+1", n, k, b, resVolume.C1, c1LB)
				}
				if resVolume.C2 > c2LB+1 {
					t.Errorf("n=%d k=%d b=%d MinVolume: C2 = %d exceeds bound %d+1",
						n, k, b, resVolume.C2, c2LB)
				}
			}
		}
	}
	if tested == 0 {
		t.Error("no special-range configurations exercised; test is vacuous")
	}
}

// TestConcatTrivialWideMachine: k >= n-1 uses the single-round trivial
// algorithm.
func TestConcatTrivialWideMachine(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 1}, {4, 3}, {5, 4}, {6, 5}} {
		res := runConcat(t, tc.n, 3, tc.k, ConcatOptions{Algorithm: ConcatCirculant})
		if res.C1 != 1 {
			t.Errorf("n=%d k=%d: C1 = %d, want 1", tc.n, tc.k, res.C1)
		}
		if res.C2 != 3 {
			t.Errorf("n=%d k=%d: C2 = %d, want block size 3", tc.n, tc.k, res.C2)
		}
	}
}

// TestRingConcat: correctness and exact measures.
func TestRingConcat(t *testing.T) {
	const b = 4
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		res := runConcat(t, n, b, 1, ConcatOptions{Algorithm: ConcatRing})
		wantC1, wantC2 := RingConcatCost(n, b)
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("ring n=%d: (C1=%d, C2=%d), want (%d, %d)", n, res.C1, res.C2, wantC1, wantC2)
		}
	}
}

// TestFolkloreConcat: correctness and exact measures, one-port and
// multiport.
func TestFolkloreConcat(t *testing.T) {
	const b = 4
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {2, 1}, {5, 1}, {8, 1}, {11, 1}, {16, 1},
		{9, 2}, {16, 3}, {10, 2},
	} {
		res := runConcat(t, tc.n, b, tc.k, ConcatOptions{Algorithm: ConcatFolklore})
		wantC1, wantC2 := FolkloreConcatCost(tc.n, b, tc.k)
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("folklore n=%d k=%d: (C1=%d, C2=%d), want (%d, %d)",
				tc.n, tc.k, res.C1, res.C2, wantC1, wantC2)
		}
	}
}

// TestFolkloreIsSuboptimal: the baseline loses to the circulant
// algorithm in both measures for n >= 4 (this is the paper's
// motivation for Section 4).
func TestFolkloreIsSuboptimal(t *testing.T) {
	const n, b = 16, 8
	folk := runConcat(t, n, b, 1, ConcatOptions{Algorithm: ConcatFolklore})
	circ := runConcat(t, n, b, 1, ConcatOptions{Algorithm: ConcatCirculant})
	if folk.C1 <= circ.C1 {
		t.Errorf("folklore C1 = %d should exceed circulant C1 = %d", folk.C1, circ.C1)
	}
	if folk.C2 <= circ.C2 {
		t.Errorf("folklore C2 = %d should exceed circulant C2 = %d", folk.C2, circ.C2)
	}
}

// TestRecursiveDoublingConcat: correctness and optimal measures for
// power-of-two n, k = 1.
func TestRecursiveDoublingConcat(t *testing.T) {
	const b = 4
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		res := runConcat(t, n, b, 1, ConcatOptions{Algorithm: ConcatRecursiveDoubling})
		wantC1, wantC2 := RecursiveDoublingConcatCost(n, b)
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("recdbl n=%d: (C1=%d, C2=%d), want (%d, %d)", n, res.C1, res.C2, wantC1, wantC2)
		}
	}
}

func TestRecursiveDoublingRejectsNonPowerOfTwo(t *testing.T) {
	e := mpsim.MustNew(6)
	_, _, err := concatSlices(e, mpsim.WorldGroup(6), genConcatInput(6, 2), ConcatOptions{Algorithm: ConcatRecursiveDoubling})
	if err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("err = %v, want power-of-two complaint", err)
	}
}

// TestConcatOnSubgroup: arbitrary processor subsets.
func TestConcatOnSubgroup(t *testing.T) {
	e := mpsim.MustNew(12, mpsim.Ports(2))
	g, err := mpsim.NewGroup([]int{11, 3, 7, 0, 5, 9, 2}, 12)
	if err != nil {
		t.Fatal(err)
	}
	in := genConcatInput(g.Size(), 4)
	out, res, err := concatSlices(e, g, in, ConcatOptions{Algorithm: ConcatCirculant})
	if err != nil {
		t.Fatalf("Concat on subgroup: %v", err)
	}
	checkConcat(t, in, out, "subgroup")
	if want := lowerbound.ConcatRounds(7, 2); res.C1 != want {
		t.Errorf("subgroup C1 = %d, want %d", res.C1, want)
	}
}

// TestCirculantConcatNonPowerGroupSizes: circulant concatenation with
// k > 1 on group sizes that are NOT powers of k+1, where the last round
// covers fewer than n1 nodes per tree and the area offsets of the
// partitioned last round can collide (assignAreaOffsets resolves them
// greedily). Runs each size both as the full world and as a shuffled
// strict subgroup (group rank != engine rank), on both flat and legacy
// paths, and cross-checks the measured cost against the closed form.
func TestCirculantConcatNonPowerGroupSizes(t *testing.T) {
	const blockLen = 3
	for _, k := range []int{2, 3} {
		for n := k + 2; n <= 30; n++ {
			if intmath.IsPow(k+1, n) {
				continue
			}
			t.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(t *testing.T) {
				in := genConcatInput(n, blockLen)

				// Full world, legacy path, cost cross-check.
				res := runConcat(t, n, blockLen, k, ConcatOptions{Algorithm: ConcatCirculant})
				wantC1, wantC2, err := ConcatCost(n, blockLen, k, partition.PreferOptimal)
				if err != nil {
					t.Fatalf("ConcatCost: %v", err)
				}
				if res.C1 != wantC1 || res.C2 != wantC2 {
					t.Errorf("world: measured (C1=%d, C2=%d), closed form (%d, %d)", res.C1, res.C2, wantC1, wantC2)
				}

				// Shuffled strict subgroup of a wider machine, flat path.
				wide := n + 3
				e := mpsim.MustNew(wide, mpsim.Ports(k))
				ids := make([]int, n)
				for i := range ids {
					ids[i] = (i + 3) % wide // rotated, so group rank != engine rank
				}
				g, err := mpsim.NewGroup(ids, wide)
				if err != nil {
					t.Fatal(err)
				}
				fin, err := buffers.FromVector(in)
				if err != nil {
					t.Fatal(err)
				}
				fout, err := buffers.New(n, n, blockLen)
				if err != nil {
					t.Fatal(err)
				}
				fres, err := runFlat(e, g, fin, fout, Spec{Op: OpConcat})
				if err != nil {
					t.Fatalf("ConcatFlat on subgroup: %v", err)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if !bytes.Equal(fout.Block(i, j), in[j]) {
							t.Fatalf("subgroup flat: out[%d][%d] != B[%d]", i, j, j)
						}
					}
				}
				if fres.C1 != wantC1 || fres.C2 != wantC2 {
					t.Errorf("subgroup flat: measured (C1=%d, C2=%d), closed form (%d, %d)",
						fres.C1, fres.C2, wantC1, wantC2)
				}
			})
		}
	}
}

// TestConcatPropertyRandom: randomized contents and shapes, all
// algorithms that apply.
func TestConcatPropertyRandom(t *testing.T) {
	f := func(nRaw, kRaw, bRaw, seed uint8) bool {
		n := int(nRaw)%14 + 1
		k := 1
		if n > 2 {
			k = int(kRaw)%intmath.Min(3, n-1) + 1
		}
		b := int(bRaw)%6 + 1
		in := make([][]byte, n)
		s := uint32(seed) + 7
		for i := range in {
			blk := make([]byte, b)
			for x := range blk {
				s = s*1664525 + 1013904223
				blk[x] = byte(s >> 24)
			}
			in[i] = blk
		}
		e := mpsim.MustNew(n, mpsim.Ports(k))
		out, _, err := concatSlices(e, mpsim.WorldGroup(n), in, ConcatOptions{Algorithm: ConcatCirculant})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !bytes.Equal(out[i][j], in[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestConcatInputValidation: malformed inputs rejected.
func TestConcatInputValidation(t *testing.T) {
	e := mpsim.MustNew(4)
	g := mpsim.WorldGroup(4)
	good := genConcatInput(4, 3)
	if _, _, err := concatSlices(e, g, good[:3], ConcatOptions{}); err == nil {
		t.Error("short input accepted")
	}
	bad := genConcatInput(4, 3)
	bad[2] = bad[2][:1]
	if _, _, err := concatSlices(e, g, bad, ConcatOptions{}); err == nil {
		t.Error("ragged blocks accepted")
	}
	if _, _, err := concatSlices(e, g, good, ConcatOptions{Algorithm: ConcatAlgorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestConcatZeroLengthBlocks: zero-size payloads.
func TestConcatZeroLengthBlocks(t *testing.T) {
	res := runConcat(t, 6, 0, 1, ConcatOptions{Algorithm: ConcatCirculant})
	if res.C2 != 0 {
		t.Errorf("C2 = %d for empty blocks", res.C2)
	}
	// An all-zero layout is uniform, but like b = 0 it has nothing to
	// disseminate: no round bound, a clean Check, verified bytes.
	for _, n := range []int{5, 17} {
		lay := must(blocks.RaggedVector(make([]int, n)))
		pl := must(Compile(mpsim.MustNew(n), mpsim.WorldGroup(n), Spec{Op: OpConcatV, Layout: lay}))
		if v := pl.Check(); len(v) != 0 {
			t.Errorf("n=%d zero layout: Check: %v", n, v)
		}
		res, err := Exercise(pl, Labels)
		if err != nil {
			t.Fatalf("n=%d zero layout: %v", n, err)
		}
		if res.C1LowerBound != 0 || res.C1 > lowerbound.ConcatRounds(n, 1) {
			t.Errorf("n=%d zero layout: C1 = %d, C1LowerBound = %d, want no bound", n, res.C1, res.C1LowerBound)
		}
	}
}

// TestConcatAlgorithmsAgree: all algorithms produce identical results
// on the same input.
func TestConcatAlgorithmsAgree(t *testing.T) {
	const n, b = 16, 4
	in := genConcatInput(n, b)
	var ref [][][]byte
	for _, alg := range []ConcatAlgorithm{ConcatCirculant, ConcatFolklore, ConcatRing, ConcatRecursiveDoubling} {
		e := mpsim.MustNew(n)
		out, _, err := concatSlices(e, mpsim.WorldGroup(n), in, ConcatOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range out {
			for j := range out[i] {
				if !bytes.Equal(out[i][j], ref[i][j]) {
					t.Fatalf("%v disagrees with reference at [%d][%d]", alg, i, j)
				}
			}
		}
	}
}
