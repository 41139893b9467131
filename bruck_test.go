package bruck

import (
	"bytes"
	"testing"

	"bruck/internal/lowerbound"
)

func indexInput(n, b int) [][][]byte {
	in := make([][][]byte, n)
	for i := range in {
		in[i] = make([][]byte, n)
		for j := range in[i] {
			blk := make([]byte, b)
			for x := range blk {
				blk[x] = byte(i*59 + j*17 + x)
			}
			in[i][j] = blk
		}
	}
	return in
}

func TestMachineIndexDefault(t *testing.T) {
	m := MustNewMachine(8)
	in := indexInput(8, 16)
	out, rep, err := m.Index(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("out[%d][%d] != in[%d][%d]", i, j, j, i)
			}
		}
	}
	if rep.C1 != 3 { // default radix k+1 = 2 on 8 processors
		t.Errorf("C1 = %d, want 3", rep.C1)
	}
}

func TestMachineIndexRadixTradeoff(t *testing.T) {
	m := MustNewMachine(16)
	in := indexInput(16, 8)
	_, fast, err := m.Index(in, WithRadix(2))
	if err != nil {
		t.Fatal(err)
	}
	_, lean, err := m.Index(in, WithRadix(16))
	if err != nil {
		t.Fatal(err)
	}
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
	in := make([][]byte, 9)
	for i := range in {
		in[i] = []byte{byte(i), byte(i * i)}
	}
	out, rep, err := m.Concat(in)
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
	in := indexInput(4, 4)
	out, _, err := m.Index(in, OnGroup(g), WithRadix(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("subgroup out[%d][%d] wrong", i, j)
			}
		}
	}
}

func TestMachinePrimitives(t *testing.T) {
	m := MustNewMachine(7, Ports(2))
	data := []byte("hello collective world")
	got, rep, err := m.Broadcast(3, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], data) {
			t.Fatalf("member %d got %q", i, got[i])
		}
	}
	if want := lowerbound.ConcatRounds(7, 2); rep.C1 != want {
		t.Errorf("broadcast C1 = %d, want %d", rep.C1, want)
	}

	blocks := make([][]byte, 7)
	for i := range blocks {
		blocks[i] = []byte{byte(i), byte(100 + i)}
	}
	gathered, _, err := m.Gather(0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gathered {
		if !bytes.Equal(gathered[i], blocks[i]) {
			t.Fatalf("gathered[%d] wrong", i)
		}
	}
	scattered, _, err := m.Scatter(2, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scattered {
		if !bytes.Equal(scattered[i], blocks[i]) {
			t.Fatalf("scattered[%d] wrong", i)
		}
	}
}

func TestMachineConcatBaselines(t *testing.T) {
	m := MustNewMachine(8)
	in := make([][]byte, 8)
	for i := range in {
		in[i] = []byte{byte(i)}
	}
	for _, alg := range []struct {
		name string
		opt  CollectiveOption
	}{
		{"folklore", WithConcatAlgorithm(ConcatFolklore)},
		{"ring", WithConcatAlgorithm(ConcatRing)},
		{"recdbl", WithConcatAlgorithm(ConcatRecursiveDoubling)},
	} {
		out, _, err := m.Concat(in, alg.opt)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		for i := range out {
			for j := range out[i] {
				if !bytes.Equal(out[i][j], in[j]) {
					t.Fatalf("%s: out[%d][%d] wrong", alg.name, i, j)
				}
			}
		}
	}
}

func TestPredictMatchesReport(t *testing.T) {
	const n, b, r, k = 16, 8, 4, 2
	m := MustNewMachine(n, Ports(k))
	_, rep, err := m.Index(indexInput(n, b), WithRadix(r))
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := PredictIndex(n, b, r, k)
	if rep.C1 != c1 || rep.C2 != c2 {
		t.Errorf("report (%d, %d), prediction (%d, %d)", rep.C1, rep.C2, c1, c2)
	}
	cin := make([][]byte, n)
	for i := range cin {
		cin[i] = make([]byte, b)
	}
	_, crep, err := m.Concat(cin)
	if err != nil {
		t.Fatal(err)
	}
	cc1, cc2, err := PredictConcat(n, b, k)
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
// so k < 1 would never end; each public entry point panics at once
// with the model function's out-of-domain text.
func TestModelPanicsOnZeroPorts(t *testing.T) {
	for _, c := range []struct {
		call func()
		want string
	}{
		{func() { PredictIndex(64, 8, 2, 0) }, "collective: IndexSchedule(64, 2, 0) out of domain: k < 1"},
		{func() { OptimalRadix(SP1, 64, 8, 0, false) }, "collective: IndexSchedule(64, 2, 0) out of domain: k < 1"},
		{func() { OptimalRadixSchedule(SP1, 64, 8, -1) }, "collective: OptimalRadixSchedule(64, 8, -1) out of domain: k < 1"},
		{func() { PredictIndexMixed(64, 8, []int{4, 4, 4}, 0) }, "collective: IndexMixedSchedule(64, [4 4 4], 0) out of domain: k < 1"},
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
	in := indexInput(n, b)
	radices := OptimalRadixSchedule(SP1, n, b, 1)
	out, rep, err := m.Index(in, WithRadices(radices))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("mixed out[%d][%d] wrong", i, j)
			}
		}
	}
	c1, c2 := PredictIndexMixed(n, b, radices, 1)
	if rep.C1 != c1 || rep.C2 != c2 {
		t.Errorf("report (%d, %d), prediction (%d, %d)", rep.C1, rep.C2, c1, c2)
	}
	// Never worse than the best uniform radix under the model.
	rBest := OptimalRadix(SP1, n, b, 1, false)
	uc1, uc2 := PredictIndex(n, b, rBest, 1)
	if rep.Time(SP1) > SP1.Time(uc1, uc2)+1e-12 {
		t.Errorf("mixed schedule (%v) worse than uniform r=%d", radices, rBest)
	}
}

func TestCriticalPathTime(t *testing.T) {
	const n, b = 16, 32
	// Symmetric schedule (Bruck index): critical path equals the
	// linear-model report time.
	m := MustNewMachine(n, RecordEvents())
	_, rep, err := m.Index(indexInput(n, b), WithRadix(2))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := m.CriticalPathTime(SP1)
	if err != nil {
		t.Fatal(err)
	}
	if diff := cp - rep.Time(SP1); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("index critical path %g != linear %g", cp, rep.Time(SP1))
	}

	// Skewed schedule: the folklore gather on a NON-power-of-two size
	// has truncated subtrees whose senders run ahead of the root, so
	// the critical path is strictly cheaper than the round-max linear
	// estimate. (For powers of two the folklore tree is perfectly
	// balanced and the two estimates agree.)
	m11 := MustNewMachine(11, RecordEvents())
	in := make([][]byte, 11)
	for i := range in {
		in[i] = make([]byte, b)
	}
	_, crep, err := m11.Concat(in, WithConcatAlgorithm(ConcatFolklore))
	if err != nil {
		t.Fatal(err)
	}
	cp, err = m11.CriticalPathTime(SP1)
	if err != nil {
		t.Fatal(err)
	}
	if cp >= crep.Time(SP1) {
		t.Errorf("folklore critical path %g should be below linear %g", cp, crep.Time(SP1))
	}

	// Error paths.
	m2 := MustNewMachine(4)
	if _, err := m2.CriticalPathTime(SP1); err == nil {
		t.Error("CriticalPathTime before any operation accepted")
	}
	if _, _, err := m2.Concat(make([][]byte, 4)); err != nil {
		t.Errorf("zero-length blocks should be legal: %v", err)
	}
	if _, err := m2.CriticalPathTime(SP1); err == nil {
		t.Error("CriticalPathTime without RecordEvents accepted")
	}
}

func TestWithoutPackingAblation(t *testing.T) {
	m := MustNewMachine(8)
	in := indexInput(8, 4)
	_, packed, err := m.Index(in, WithRadix(2))
	if err != nil {
		t.Fatal(err)
	}
	out, unpacked, err := m.Index(in, WithRadix(2), WithoutPacking())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("unpacked out[%d][%d] wrong", i, j)
			}
		}
	}
	if unpacked.C1 <= packed.C1 {
		t.Errorf("packing ablation should cost rounds: %d vs %d", unpacked.C1, packed.C1)
	}
}
