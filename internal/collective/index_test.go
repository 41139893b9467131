package collective

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
)

// genIndexInput builds n x n distinct blocks of blockLen bytes:
// B[i][j] carries a pattern identifying (i, j).
func genIndexInput(n, blockLen int) [][][]byte {
	in := make([][][]byte, n)
	for i := 0; i < n; i++ {
		in[i] = make([][]byte, n)
		for j := 0; j < n; j++ {
			blk := make([]byte, blockLen)
			for x := range blk {
				blk[x] = byte(i*131 + j*31 + x*7)
			}
			in[i][j] = blk
		}
	}
	return in
}

// checkTranspose verifies out[i][j] == in[j][i].
func checkTranspose(t *testing.T, in, out [][][]byte, tag string) {
	t.Helper()
	n := len(in)
	if len(out) != n {
		t.Fatalf("%s: out has %d processors, want %d", tag, len(out), n)
	}
	for i := 0; i < n; i++ {
		if len(out[i]) != n {
			t.Fatalf("%s: out[%d] has %d blocks, want %d", tag, i, len(out[i]), n)
		}
		for j := 0; j < n; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("%s: out[%d][%d] != in[%d][%d]", tag, i, j, j, i)
			}
		}
	}
}

func runIndex(t *testing.T, n, blockLen, k int, opt IndexOptions) (*Result, [][][]byte) {
	t.Helper()
	e := mpsim.MustNew(n, mpsim.Ports(k))
	in := genIndexInput(n, blockLen)
	out, res, err := indexSlices(e, mpsim.WorldGroup(n), in, opt)
	if err != nil {
		t.Fatalf("Index(n=%d, b=%d, k=%d, %+v): %v", n, blockLen, k, opt, err)
	}
	checkTranspose(t, in, out, fmt.Sprintf("n=%d b=%d k=%d alg=%v r=%d", n, blockLen, k, opt.Algorithm, opt.Radix))
	return res, out
}

// TestBruckIndexCorrectnessSweep: every radix for a spread of n, one
// port.
func TestBruckIndexCorrectnessSweep(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 25, 32} {
		radices := []int{2, 3, 4, 5, n}
		for _, r := range radices {
			if n > 1 && (r < 2 || r > n) {
				continue
			}
			runIndex(t, n, 4, 1, IndexOptions{Algorithm: IndexBruck, Radix: intmath.Min(r, intmath.Max(n, 2))})
		}
	}
}

// TestBruckIndexKPortSweep: multiport correctness and round grouping.
func TestBruckIndexKPortSweep(t *testing.T) {
	for _, tc := range []struct{ n, k, r int }{
		{8, 2, 3}, {8, 3, 4}, {9, 2, 3}, {16, 3, 4}, {16, 2, 16},
		{27, 2, 3}, {12, 4, 5}, {10, 3, 10}, {64, 3, 4}, {13, 2, 4},
	} {
		res, _ := runIndex(t, tc.n, 3, tc.k, IndexOptions{Algorithm: IndexBruck, Radix: tc.r})
		wantC1, wantC2 := IndexCost(tc.n, 3, tc.r, tc.k)
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("n=%d k=%d r=%d: measured (C1=%d, C2=%d), closed form (%d, %d)",
				tc.n, tc.k, tc.r, res.C1, res.C2, wantC1, wantC2)
		}
	}
}

// TestIndexMeasuredMatchesClosedForm: the simulator-measured C1 and C2
// equal the closed forms for all (n, r) at k=1.
func TestIndexMeasuredMatchesClosedForm(t *testing.T) {
	const blockLen = 2
	for n := 2; n <= 18; n++ {
		for r := 2; r <= n; r++ {
			res, _ := runIndex(t, n, blockLen, 1, IndexOptions{Algorithm: IndexBruck, Radix: r})
			wantC1, wantC2 := IndexCost(n, blockLen, r, 1)
			if res.C1 != wantC1 {
				t.Errorf("n=%d r=%d: C1 = %d, closed form %d", n, r, res.C1, wantC1)
			}
			if res.C2 != wantC2 {
				t.Errorf("n=%d r=%d: C2 = %d, closed form %d", n, r, res.C2, wantC2)
			}
		}
	}
}

// TestIndexSpecialCaseR2: Section 3.3 case 1: r=2 gives C1 = ceil(log2 n)
// (optimal) and C2 <= b*ceil(n/2)*ceil(log2 n).
func TestIndexSpecialCaseR2(t *testing.T) {
	const b = 8
	for _, n := range []int{2, 4, 5, 8, 16, 31, 32, 64} {
		res, _ := runIndex(t, n, b, 1, IndexOptions{Algorithm: IndexBruck, Radix: 2})
		wantC1 := lowerbound.IndexRounds(n, 1)
		if res.C1 != wantC1 {
			t.Errorf("n=%d r=2: C1 = %d, want optimal %d", n, res.C1, wantC1)
		}
		env := b * intmath.CeilDiv(n, 2) * intmath.CeilLog(2, n)
		if res.C2 > env {
			t.Errorf("n=%d r=2: C2 = %d exceeds envelope %d", n, res.C2, env)
		}
		// Theorem 2.5: for n a power of 2, any minimal-round algorithm
		// moves at least (b*n/2)*log2 n; we must respect it.
		if intmath.IsPow(2, n) {
			if lb := lowerbound.IndexVolumeAtMinRounds(n, b, 1); res.C2 < lb {
				t.Errorf("n=%d r=2: C2 = %d below the Theorem 2.5 bound %d (impossible)", n, res.C2, lb)
			}
		}
	}
}

// TestIndexSpecialCaseRN: Section 3.3 case 2: r=n transfers C2 = b(n-1),
// optimal, in C1 = n-1 rounds.
func TestIndexSpecialCaseRN(t *testing.T) {
	const b = 8
	for _, n := range []int{2, 3, 5, 8, 13, 16} {
		res, _ := runIndex(t, n, b, 1, IndexOptions{Algorithm: IndexBruck, Radix: n})
		if res.C1 != n-1 {
			t.Errorf("n=%d r=n: C1 = %d, want %d", n, res.C1, n-1)
		}
		if res.C2 != b*(n-1) {
			t.Errorf("n=%d r=n: C2 = %d, want optimal %d", n, res.C2, b*(n-1))
		}
	}
}

// TestIndexLowerBoundsRespected: across a sweep, measured C1 and C2
// never beat the Section 2 lower bounds.
func TestIndexLowerBoundsRespected(t *testing.T) {
	const b = 4
	for _, n := range []int{2, 5, 8, 9, 16, 27} {
		for _, k := range []int{1, 2, 3} {
			if k > n-1 {
				continue
			}
			for _, r := range []int{2, 3, n} {
				if r < 2 || r > n {
					continue
				}
				res, _ := runIndex(t, n, b, k, IndexOptions{Algorithm: IndexBruck, Radix: r})
				if res.C1 < lowerbound.IndexRounds(n, k) {
					t.Errorf("n=%d k=%d r=%d: C1 = %d beats lower bound %d",
						n, k, r, res.C1, lowerbound.IndexRounds(n, k))
				}
				if res.C2 < lowerbound.IndexVolume(n, b, k) {
					t.Errorf("n=%d k=%d r=%d: C2 = %d beats lower bound %d",
						n, k, r, res.C2, lowerbound.IndexVolume(n, b, k))
				}
			}
		}
	}
}

// TestIndexEnvelopeOnPowers: for n a power of r the paper's Section 3.2
// envelope holds exactly as stated.
func TestIndexEnvelopeOnPowers(t *testing.T) {
	const b = 4
	for _, tc := range []struct{ n, r, k int }{
		{16, 2, 1}, {16, 4, 1}, {27, 3, 1}, {64, 8, 1}, {64, 2, 1},
		{16, 4, 3}, {27, 3, 2}, {64, 4, 3}, {81, 3, 2},
	} {
		res, _ := runIndex(t, tc.n, b, tc.k, IndexOptions{Algorithm: IndexBruck, Radix: tc.r})
		envC1, envC2 := IndexCostEnvelope(tc.n, b, tc.r, tc.k)
		if res.C1 > envC1 {
			t.Errorf("n=%d r=%d k=%d: C1 = %d exceeds envelope %d", tc.n, tc.r, tc.k, res.C1, envC1)
		}
		if res.C2 > envC2 {
			t.Errorf("n=%d r=%d k=%d: C2 = %d exceeds envelope %d", tc.n, tc.r, tc.k, res.C2, envC2)
		}
	}
}

// TestDirectIndex: correctness and exact measures.
func TestDirectIndex(t *testing.T) {
	const b = 6
	for _, tc := range []struct{ n, k int }{{2, 1}, {5, 1}, {8, 1}, {8, 3}, {9, 2}, {16, 5}, {7, 6}} {
		res, _ := runIndex(t, tc.n, b, tc.k, IndexOptions{Algorithm: IndexDirect})
		wantC1, wantC2 := DirectIndexCost(tc.n, b, tc.k)
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("n=%d k=%d: (C1=%d, C2=%d), want (%d, %d)", tc.n, tc.k, res.C1, res.C2, wantC1, wantC2)
		}
		// Theorem 2.6: volume-minimal schedules need ceil((n-1)/k) rounds.
		if res.C1 < lowerbound.IndexRoundsAtMinVolume(tc.n, tc.k) {
			t.Errorf("n=%d k=%d: direct C1 = %d beats Theorem 2.6 bound", tc.n, tc.k, res.C1)
		}
	}
}

// TestXORIndex: power-of-two pairwise exchange.
func TestXORIndex(t *testing.T) {
	const b = 5
	for _, tc := range []struct{ n, k int }{{2, 1}, {4, 1}, {8, 1}, {8, 3}, {16, 2}, {32, 1}} {
		res, _ := runIndex(t, tc.n, b, tc.k, IndexOptions{Algorithm: IndexPairwiseXOR})
		wantC1, wantC2 := DirectIndexCost(tc.n, b, tc.k)
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("n=%d k=%d: (C1=%d, C2=%d), want (%d, %d)", tc.n, tc.k, res.C1, res.C2, wantC1, wantC2)
		}
	}
}

func TestXORIndexRejectsNonPowerOfTwo(t *testing.T) {
	e := mpsim.MustNew(6)
	_, _, err := indexSlices(e, mpsim.WorldGroup(6), genIndexInput(6, 2), IndexOptions{Algorithm: IndexPairwiseXOR})
	if err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("err = %v, want power-of-two complaint", err)
	}
}

// TestIndexOnSubgroup: the operation restricted to an arbitrary subset
// of engine processors, like the paper's processor-id array A.
func TestIndexOnSubgroup(t *testing.T) {
	e := mpsim.MustNew(10)
	g, err := mpsim.NewGroup([]int{7, 2, 9, 4, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	in := genIndexInput(g.Size(), 4)
	out, res, err := indexSlices(e, g, in, IndexOptions{Algorithm: IndexBruck, Radix: 2})
	if err != nil {
		t.Fatalf("Index on subgroup: %v", err)
	}
	checkTranspose(t, in, out, "subgroup")
	if res.C1 != 3 { // ceil(log2 5)
		t.Errorf("subgroup C1 = %d, want 3", res.C1)
	}
}

// TestIndexNoPackAblation: disabling packing preserves correctness and
// multiplies rounds.
func TestIndexNoPackAblation(t *testing.T) {
	const n, b = 8, 4
	packed, _ := runIndex(t, n, b, 1, IndexOptions{Algorithm: IndexBruck, Radix: 2})
	unpacked, _ := runIndex(t, n, b, 1, IndexOptions{Algorithm: IndexBruck, Radix: 2, NoPack: true})
	if unpacked.C1 <= packed.C1 {
		t.Errorf("NoPack C1 = %d should exceed packed C1 = %d", unpacked.C1, packed.C1)
	}
	// Unpacked sends each selected block in its own round: C1 equals
	// the total block count sum over steps, and every message is b
	// bytes.
	wantRounds := 0
	for _, blocksPerRound := range IndexSchedule(n, 2, 1) {
		wantRounds += blocksPerRound
	}
	if unpacked.C1 != wantRounds {
		t.Errorf("NoPack C1 = %d, want %d", unpacked.C1, wantRounds)
	}
	if unpacked.C2 != wantRounds*b {
		t.Errorf("NoPack C2 = %d, want %d", unpacked.C2, wantRounds*b)
	}
}

// TestIndexPropertyRandom: randomized property test across shapes and
// payload contents.
func TestIndexPropertyRandom(t *testing.T) {
	f := func(nRaw, rRaw, kRaw, bRaw, seed uint8) bool {
		n := int(nRaw)%10 + 2    // 2..11
		r := int(rRaw)%(n-1) + 2 // 2..n
		k := int(kRaw)%intmath.Min(3, n-1) + 1
		b := int(bRaw)%5 + 1
		in := make([][][]byte, n)
		s := uint32(seed) + 1
		for i := range in {
			in[i] = make([][]byte, n)
			for j := range in[i] {
				blk := make([]byte, b)
				for x := range blk {
					s = s*1664525 + 1013904223
					blk[x] = byte(s >> 24)
				}
				in[i][j] = blk
			}
		}
		e := mpsim.MustNew(n, mpsim.Ports(k))
		out, _, err := indexSlices(e, mpsim.WorldGroup(n), in, IndexOptions{Algorithm: IndexBruck, Radix: r})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !bytes.Equal(out[i][j], in[j][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIndexInputValidation: malformed inputs are rejected before any
// communication.
func TestIndexInputValidation(t *testing.T) {
	e := mpsim.MustNew(3)
	g := mpsim.WorldGroup(3)
	good := genIndexInput(3, 2)

	if _, _, err := indexSlices(e, g, good[:2], IndexOptions{}); err == nil {
		t.Error("short input accepted")
	}
	bad := genIndexInput(3, 2)
	bad[1] = bad[1][:2]
	if _, _, err := indexSlices(e, g, bad, IndexOptions{}); err == nil {
		t.Error("ragged processor accepted")
	}
	bad2 := genIndexInput(3, 2)
	bad2[2][1] = []byte{1}
	if _, _, err := indexSlices(e, g, bad2, IndexOptions{}); err == nil {
		t.Error("ragged block accepted")
	}
	if _, _, err := indexSlices(e, g, good, IndexOptions{Radix: 99}); err == nil {
		t.Error("radix > n accepted")
	}
	if _, _, err := indexSlices(e, g, good, IndexOptions{Radix: 1}); err == nil {
		t.Error("radix 1 accepted")
	}
	if _, _, err := indexSlices(e, g, good, IndexOptions{Algorithm: IndexAlgorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	gBig, _ := mpsim.NewGroup([]int{0, 1, 5}, 0)
	if _, _, err := indexSlices(e, gBig, good, IndexOptions{}); err == nil {
		t.Error("group member outside engine accepted")
	}
}

// TestIndexSingleProcessor: n = 1 degenerates to a copy.
func TestIndexSingleProcessor(t *testing.T) {
	e := mpsim.MustNew(1)
	in := genIndexInput(1, 4)
	out, res, err := indexSlices(e, mpsim.WorldGroup(1), in, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0][0], in[0][0]) {
		t.Error("single-processor index mangled the block")
	}
	if res.C1 != 0 || res.C2 != 0 {
		t.Errorf("single-processor index communicated: %+v", res)
	}
}

// TestIndexZeroLengthBlocks: degenerate payloads flow through the whole
// machinery.
func TestIndexZeroLengthBlocks(t *testing.T) {
	res, _ := runIndex(t, 5, 0, 1, IndexOptions{Algorithm: IndexBruck, Radix: 2})
	if res.C2 != 0 {
		t.Errorf("C2 = %d for zero-length blocks", res.C2)
	}
	if res.C1 == 0 {
		t.Error("C1 = 0; rounds should still happen (empty messages)")
	}
}

// TestTheorem25Tightness: for n = (k+1)^d, the r = k+1 algorithm runs
// in the minimal number of rounds AND meets the Theorem 2.5 volume
// lower bound (b*n/(k+1))*log_{k+1} n with equality — the algorithm is
// exactly optimal among minimal-round schedules.
func TestTheorem25Tightness(t *testing.T) {
	const b = 4
	for _, tc := range []struct{ n, k int }{
		{8, 1}, {16, 1}, {64, 1}, {9, 2}, {27, 2}, {16, 3}, {64, 3}, {25, 4},
	} {
		res, _ := runIndex(t, tc.n, b, tc.k, IndexOptions{Algorithm: IndexBruck, Radix: tc.k + 1})
		if want := lowerbound.IndexRounds(tc.n, tc.k); res.C1 != want {
			t.Errorf("n=%d k=%d: C1 = %d, want minimal %d", tc.n, tc.k, res.C1, want)
		}
		bound := lowerbound.IndexVolumeAtMinRounds(tc.n, b, tc.k)
		if res.C2 != bound {
			t.Errorf("n=%d k=%d: C2 = %d, Theorem 2.5 bound %d (r=k+1 should be tight)",
				tc.n, tc.k, res.C2, bound)
		}
	}
}

// TestIndexInvolution: the index operation is an involution — applying
// it twice restores the original configuration.
func TestIndexInvolution(t *testing.T) {
	const n, b = 9, 5
	e := mpsim.MustNew(n)
	g := mpsim.WorldGroup(n)
	in := genIndexInput(n, b)
	once, _, err := indexSlices(e, g, in, IndexOptions{Radix: 3})
	if err != nil {
		t.Fatal(err)
	}
	twice, _, err := indexSlices(e, g, once, IndexOptions{Radix: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(twice[i][j], in[i][j]) {
				t.Fatalf("double index is not the identity at [%d][%d]", i, j)
			}
		}
	}
}

// TestIndexDefaultRadixIsKPlus1: the default radix minimizes rounds.
func TestIndexDefaultRadixIsKPlus1(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{9, 2}, {16, 3}, {8, 1}} {
		res, _ := runIndex(t, tc.n, 2, tc.k, IndexOptions{Algorithm: IndexBruck})
		if want := lowerbound.IndexRounds(tc.n, tc.k); res.C1 != want {
			t.Errorf("n=%d k=%d default radix: C1 = %d, want round-optimal %d", tc.n, tc.k, res.C1, want)
		}
	}
}
