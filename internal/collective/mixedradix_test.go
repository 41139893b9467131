package collective

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"bruck/internal/costmodel"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
)

func runMixed(t *testing.T, n, blockLen, k int, radices []int) *Result {
	t.Helper()
	e := mpsim.MustNew(n, mpsim.Ports(k))
	in := genIndexInput(n, blockLen)
	out, res, err := indexMixedSlices(e, mpsim.WorldGroup(n), in, radices)
	if err != nil {
		t.Fatalf("IndexMixed(n=%d, k=%d, radices=%v): %v", n, k, radices, err)
	}
	checkTranspose(t, in, out, fmt.Sprintf("mixed n=%d k=%d radices=%v", n, k, radices))
	return res
}

func TestValidateRadices(t *testing.T) {
	cases := []struct {
		n       int
		radices []int
		ok      bool
	}{
		{8, []int{2, 2, 2}, true},
		{8, []int{2, 4}, true},
		{8, []int{4, 2}, true},
		{8, []int{8}, true},
		{8, []int{3, 3}, true},  // product 9 >= 8
		{8, []int{2, 2}, false}, // product 4 < 8
		{8, []int{}, false},
		{8, []int{1, 8}, false},       // radix < 2
		{8, []int{8, 2}, false},       // dead second subphase
		{8, []int{2, 2, 2, 2}, false}, // dead fourth subphase
		{1, nil, true},
		{1, []int{2}, false},
	}
	for _, c := range cases {
		err := ValidateRadices(c.n, c.radices)
		if (err == nil) != c.ok {
			t.Errorf("ValidateRadices(%d, %v) = %v, want ok=%v", c.n, c.radices, err, c.ok)
		}
	}
}

// TestMixedMatchesUniform: a constant radix vector reproduces the
// uniform algorithm's schedule exactly.
func TestMixedMatchesUniform(t *testing.T) {
	for _, tc := range []struct {
		n, r, k int
	}{
		{8, 2, 1}, {16, 4, 1}, {27, 3, 2}, {10, 2, 1}, {64, 8, 3},
	} {
		var radices []int
		w := 1
		for w < tc.n {
			radices = append(radices, tc.r)
			w *= tc.r
		}
		res := runMixed(t, tc.n, 3, tc.k, radices)
		wantC1, wantC2 := IndexCost(tc.n, 3, tc.r, tc.k)
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("n=%d r=%d k=%d: mixed (%d, %d), uniform (%d, %d)",
				tc.n, tc.r, tc.k, res.C1, res.C2, wantC1, wantC2)
		}
	}
}

// TestMixedCorrectnessSweep: assorted genuinely mixed vectors.
func TestMixedCorrectnessSweep(t *testing.T) {
	for _, tc := range []struct {
		n, k    int
		radices []int
	}{
		{12, 1, []int{3, 4}},
		{12, 1, []int{4, 3}},
		{12, 1, []int{2, 3, 2}},
		{30, 1, []int{2, 3, 5}},
		{30, 1, []int{5, 3, 2}},
		{17, 1, []int{3, 3, 2}},
		{17, 2, []int{2, 9}},
		{64, 2, []int{4, 4, 4}},
		{100, 3, []int{10, 10}},
		{7, 1, []int{7}},
		{5, 1, []int{2, 3}},
	} {
		res := runMixed(t, tc.n, 4, tc.k, tc.radices)
		wantC1, wantC2 := IndexMixedCost(tc.n, 4, tc.radices, tc.k)
		if res.C1 != wantC1 || res.C2 != wantC2 {
			t.Errorf("n=%d k=%d radices=%v: measured (%d, %d), closed form (%d, %d)",
				tc.n, tc.k, tc.radices, res.C1, res.C2, wantC1, wantC2)
		}
		if res.C1 < lowerbound.IndexRounds(tc.n, tc.k) {
			t.Errorf("n=%d radices=%v: C1 = %d beats the lower bound", tc.n, tc.radices, res.C1)
		}
		if res.C2 < lowerbound.IndexVolume(tc.n, 4, tc.k) {
			t.Errorf("n=%d radices=%v: C2 = %d beats the lower bound", tc.n, tc.radices, res.C2)
		}
	}
}

// TestMixedPropertyRandom: random valid radix vectors on random
// payloads still produce the transpose.
func TestMixedPropertyRandom(t *testing.T) {
	f := func(nRaw, seed uint8) bool {
		n := int(nRaw)%18 + 2
		s := uint32(seed)*2654435761 + 1
		// Build a random valid radix vector.
		var radices []int
		w := 1
		for w < n {
			s = s*1664525 + 1013904223
			r := int(s>>28)%4 + 2 // 2..5
			radices = append(radices, r)
			w *= r
		}
		in := genIndexInput(n, 3)
		e := mpsim.MustNew(n)
		out, _, err := indexMixedSlices(e, mpsim.WorldGroup(n), in, radices)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOptimalRadixScheduleDominatesUniform: the DP vector is never
// worse than the best uniform radix under the same model.
func TestOptimalRadixScheduleDominatesUniform(t *testing.T) {
	for _, n := range []int{8, 16, 17, 30, 64, 100} {
		for _, b := range []int{1, 16, 64, 256, 2048} {
			for _, k := range []int{1, 2} {
				radices := OptimalRadixSchedule(costmodel.SP1, n, b, k)
				if err := ValidateRadices(n, radices); err != nil {
					t.Fatalf("n=%d b=%d k=%d: invalid DP vector %v: %v", n, b, k, radices, err)
				}
				c1m, c2m := IndexMixedCost(n, b, radices, k)
				mixedTime := costmodel.SP1.Time(c1m, c2m)
				rBest := OptimalRadix(costmodel.SP1, n, b, k, false)
				c1u, c2u := IndexCost(n, b, rBest, k)
				uniformTime := costmodel.SP1.Time(c1u, c2u)
				if mixedTime > uniformTime+1e-12 {
					t.Errorf("n=%d b=%d k=%d: DP vector %v (%.3g s) worse than uniform r=%d (%.3g s)",
						n, b, k, radices, mixedTime, rBest, uniformTime)
				}
			}
		}
	}
}

// TestOptimalRadixScheduleStrictWin: at intermediate message sizes a
// mixed vector can strictly beat every uniform radix; verify the DP
// finds at least one such configuration in a sweep (if none exists the
// mixed extension is pointless and this test documents it loudly).
func TestOptimalRadixScheduleStrictWin(t *testing.T) {
	wins := 0
	for _, n := range []int{17, 30, 45, 64, 100} {
		for b := 8; b <= 512; b *= 2 {
			radices := OptimalRadixSchedule(costmodel.SP1, n, b, 1)
			c1m, c2m := IndexMixedCost(n, b, radices, 1)
			mixedTime := costmodel.SP1.Time(c1m, c2m)
			bestUniform := -1.0
			for r := 2; r <= n; r++ {
				c1, c2 := IndexCost(n, b, r, 1)
				if tm := costmodel.SP1.Time(c1, c2); bestUniform < 0 || tm < bestUniform {
					bestUniform = tm
				}
			}
			if mixedTime < bestUniform-1e-12 {
				wins++
			}
		}
	}
	if wins == 0 {
		t.Error("the DP never strictly beat uniform radices in the sweep; expected at least one win")
	}
}

// TestMixedRunsOnEngineMatchDP: the DP vector's predicted schedule is
// what actually executes.
func TestMixedRunsOnEngineMatchDP(t *testing.T) {
	const n, b, k = 30, 64, 1
	radices := OptimalRadixSchedule(costmodel.SP1, n, b, k)
	res := runMixed(t, n, b, k, radices)
	wantC1, wantC2 := IndexMixedCost(n, b, radices, k)
	if res.C1 != wantC1 || res.C2 != wantC2 {
		t.Errorf("measured (%d, %d), DP prediction (%d, %d)", res.C1, res.C2, wantC1, wantC2)
	}
}

func TestIndexMixedInputValidation(t *testing.T) {
	e := mpsim.MustNew(4)
	g := mpsim.WorldGroup(4)
	in := genIndexInput(4, 2)
	if _, _, err := indexMixedSlices(e, g, in, []int{2}); err == nil {
		t.Error("undersized radix vector accepted")
	}
	if _, _, err := indexMixedSlices(e, g, in[:2], []int{2, 2}); err == nil {
		t.Error("short input accepted")
	}
}

func TestOptimalRadixScheduleEdgeCases(t *testing.T) {
	if got := OptimalRadixSchedule(costmodel.SP1, 1, 8, 1); got != nil {
		t.Errorf("n=1: got %v, want nil", got)
	}
	got := OptimalRadixSchedule(costmodel.SP1, 2, 8, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("n=2: got %v, want [2]", got)
	}
}
