package bruck

// Equivalence and allocation-regression tests for the flat zero-copy
// collective paths. The legacy [][][]byte entry points are adapters
// over the flat paths, so these tests pin down two properties the
// refactor promised: (1) both layouts produce byte-identical results
// and identical schedules, and (2) the flat path allocates at most half
// of what the legacy path does.

import (
	"bytes"
	"fmt"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/intmath"
)

func benchIndexInput(n, blockLen int) [][][]byte {
	in := make([][][]byte, n)
	for i := range in {
		in[i] = make([][]byte, n)
		for j := range in[i] {
			blk := make([]byte, blockLen)
			for x := range blk {
				blk[x] = byte(i + j + x)
			}
			in[i][j] = blk
		}
	}
	return in
}

func benchConcatInput(n, blockLen int) [][]byte {
	in := make([][]byte, n)
	for i := range in {
		in[i] = make([]byte, blockLen)
		for x := range in[i] {
			in[i][x] = byte(i + x)
		}
	}
	return in
}

// flatIndexInput builds the flat twin of benchIndexInput(n, blockLen).
func flatIndexInput(t testing.TB, n, blockLen int) *Buffers {
	t.Helper()
	fin, err := buffers.FromMatrix(benchIndexInput(n, blockLen))
	if err != nil {
		t.Fatal(err)
	}
	return fin
}

// flatConcatInput builds the flat twin of benchConcatInput(n, blockLen).
func flatConcatInput(t testing.TB, n, blockLen int) *Buffers {
	t.Helper()
	fin, err := buffers.FromVector(benchConcatInput(n, blockLen))
	if err != nil {
		t.Fatal(err)
	}
	return fin
}

func mustIndexBuffers(t testing.TB, n, blockLen int) *Buffers {
	t.Helper()
	out, err := NewIndexBuffers(n, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkIndexEquivalence runs one option set through both layouts on
// machine m and asserts byte-identical results and identical measures.
func checkIndexEquivalence(t *testing.T, m *Machine, n, blockLen int, opts ...CollectiveOption) {
	t.Helper()
	in := benchIndexInput(n, blockLen)
	legacy, legacyRep, err := m.Index(in, opts...)
	if err != nil {
		t.Fatalf("legacy index: %v", err)
	}
	fin := flatIndexInput(t, n, blockLen)
	fout := mustIndexBuffers(t, n, blockLen)
	flatRep, err := m.IndexFlat(fin, fout, opts...)
	if err != nil {
		t.Fatalf("flat index: %v", err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(legacy[i][j], fout.Block(i, j)) {
				t.Fatalf("out[%d][%d]: legacy %v, flat %v", i, j, legacy[i][j], fout.Block(i, j))
			}
		}
	}
	if legacyRep.C1 != flatRep.C1 || legacyRep.C2 != flatRep.C2 {
		t.Fatalf("schedule differs: legacy (C1=%d, C2=%d), flat (C1=%d, C2=%d)",
			legacyRep.C1, legacyRep.C2, flatRep.C1, flatRep.C2)
	}
}

func checkConcatEquivalence(t *testing.T, m *Machine, n, blockLen int, opts ...CollectiveOption) {
	t.Helper()
	in := benchConcatInput(n, blockLen)
	legacy, legacyRep, err := m.Concat(in, opts...)
	if err != nil {
		t.Fatalf("legacy concat: %v", err)
	}
	fin := flatConcatInput(t, n, blockLen)
	fout := mustIndexBuffers(t, n, blockLen)
	flatRep, err := m.ConcatFlat(fin, fout, opts...)
	if err != nil {
		t.Fatalf("flat concat: %v", err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(legacy[i][j], fout.Block(i, j)) {
				t.Fatalf("out[%d][%d]: legacy %v, flat %v", i, j, legacy[i][j], fout.Block(i, j))
			}
		}
	}
	if legacyRep.C1 != flatRep.C1 || legacyRep.C2 != flatRep.C2 {
		t.Fatalf("schedule differs: legacy (C1=%d, C2=%d), flat (C1=%d, C2=%d)",
			legacyRep.C1, legacyRep.C2, flatRep.C1, flatRep.C2)
	}
}

// TestFlatIndexMatchesLegacy sweeps n in 1..16 and k in {1,2,3} across
// the index algorithms and radices.
func TestFlatIndexMatchesLegacy(t *testing.T) {
	const blockLen = 3
	for n := 1; n <= 16; n++ {
		for _, k := range []int{1, 2, 3} {
			if k > intmath.Max(1, n-1) {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				m := MustNewMachine(n, Ports(k))
				// Default options, the radix extremes, and the baselines.
				checkIndexEquivalence(t, m, n, blockLen)
				if n >= 2 {
					checkIndexEquivalence(t, m, n, blockLen, WithRadix(2))
					checkIndexEquivalence(t, m, n, blockLen, WithRadix(n))
				}
				checkIndexEquivalence(t, m, n, blockLen, WithIndexAlgorithm(IndexDirect))
				if intmath.IsPow(2, n) {
					checkIndexEquivalence(t, m, n, blockLen, WithIndexAlgorithm(IndexPairwiseXOR))
				}
				if mixed := OptimalRadixSchedule(SP1, n, blockLen, k); len(mixed) > 0 {
					checkIndexEquivalence(t, m, n, blockLen, WithRadices(mixed))
				}
				if n <= 6 {
					checkIndexEquivalence(t, m, n, blockLen, WithRadix(2), WithoutPacking())
				}
			})
		}
	}
}

// TestFlatConcatMatchesLegacy sweeps n in 1..16 and k in {1,2,3} across
// the concatenation algorithms and last-round policies.
func TestFlatConcatMatchesLegacy(t *testing.T) {
	const blockLen = 3
	for n := 1; n <= 16; n++ {
		for _, k := range []int{1, 2, 3} {
			if k > intmath.Max(1, n-1) {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				m := MustNewMachine(n, Ports(k))
				checkConcatEquivalence(t, m, n, blockLen)
				checkConcatEquivalence(t, m, n, blockLen, WithLastRoundPolicy(LastRoundMinRounds))
				checkConcatEquivalence(t, m, n, blockLen, WithLastRoundPolicy(LastRoundMinVolume))
				checkConcatEquivalence(t, m, n, blockLen, WithConcatAlgorithm(ConcatRing))
				checkConcatEquivalence(t, m, n, blockLen, WithConcatAlgorithm(ConcatFolklore))
				if intmath.IsPow(2, n) {
					checkConcatEquivalence(t, m, n, blockLen, WithConcatAlgorithm(ConcatRecursiveDoubling))
				}
			})
		}
	}
}

// TestFlatOnGroup checks the flat paths on a strict subgroup of the
// machine, where group ranks differ from engine ranks.
func TestFlatOnGroup(t *testing.T) {
	const n, blockLen = 5, 4
	m := MustNewMachine(9)
	g, err := m.NewGroup([]int{7, 2, 5, 0, 8})
	if err != nil {
		t.Fatal(err)
	}

	in := benchIndexInput(n, blockLen)
	legacy, _, err := m.Index(in, OnGroup(g))
	if err != nil {
		t.Fatal(err)
	}
	fin := flatIndexInput(t, n, blockLen)
	fout := mustIndexBuffers(t, n, blockLen)
	if _, err := m.IndexFlat(fin, fout, OnGroup(g)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(legacy[i][j], fout.Block(i, j)) {
				t.Fatalf("group index out[%d][%d]: legacy %v, flat %v", i, j, legacy[i][j], fout.Block(i, j))
			}
		}
	}

	cin := benchConcatInput(n, blockLen)
	clegacy, _, err := m.Concat(cin, OnGroup(g))
	if err != nil {
		t.Fatal(err)
	}
	cfin := flatConcatInput(t, n, blockLen)
	cfout := mustIndexBuffers(t, n, blockLen)
	if _, err := m.ConcatFlat(cfin, cfout, OnGroup(g)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(clegacy[i][j], cfout.Block(i, j)) {
				t.Fatalf("group concat out[%d][%d]: legacy %v, flat %v", i, j, clegacy[i][j], cfout.Block(i, j))
			}
		}
	}
}

// TestFlatShapeErrors checks that malformed flat buffers are rejected
// up front rather than corrupting a run.
func TestFlatShapeErrors(t *testing.T) {
	m := MustNewMachine(4)
	good := mustIndexBuffers(t, 4, 8)
	wrongProcs := mustIndexBuffers(t, 5, 8)
	wrongLen := mustIndexBuffers(t, 4, 7)
	if _, err := m.IndexFlat(wrongProcs, mustIndexBuffers(t, 4, 8)); err == nil {
		t.Error("IndexFlat accepted a 5-processor input on a 4-processor machine")
	}
	if _, err := m.IndexFlat(good, wrongLen); err == nil {
		t.Error("IndexFlat accepted mismatched block lengths")
	}
	if _, err := m.IndexFlat(good, good); err == nil {
		t.Error("IndexFlat accepted aliased input and output")
	}
	if _, err := m.IndexFlat(nil, good); err == nil {
		t.Error("IndexFlat accepted a nil input")
	}
	cin, err := NewConcatBuffers(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConcatFlat(cin, wrongLen); err == nil {
		t.Error("ConcatFlat accepted mismatched block lengths")
	}
	if _, err := m.ConcatFlat(good, mustIndexBuffers(t, 4, 8)); err == nil {
		t.Error("ConcatFlat accepted an index-shaped input")
	}
}

// TestFlatIndexAllocs locks in the headline of the flat refactor: the
// zero-copy index path allocates at most half of what the legacy
// block-matrix path does (the acceptance bound; the measured reduction
// is ~70% at this size and grows with n).
func TestFlatIndexAllocs(t *testing.T) {
	const n, blockLen, runs = 16, 32, 10
	m := MustNewMachine(n)
	in := benchIndexInput(n, blockLen)
	fin := flatIndexInput(t, n, blockLen)
	fout := mustIndexBuffers(t, n, blockLen)

	var opErr error
	legacy := testing.AllocsPerRun(runs, func() {
		if _, _, err := m.Index(in, WithRadix(2)); err != nil {
			opErr = err
		}
	})
	flat := testing.AllocsPerRun(runs, func() {
		if _, err := m.IndexFlat(fin, fout, WithRadix(2)); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if flat > legacy/2 {
		t.Errorf("flat index allocates %.0f/op, legacy %.0f/op; want flat <= legacy/2", flat, legacy)
	}
}

// TestFlatConcatAllocs is the concatenation counterpart of
// TestFlatIndexAllocs.
func TestFlatConcatAllocs(t *testing.T) {
	const n, blockLen, runs = 16, 32, 10
	m := MustNewMachine(n)
	in := benchConcatInput(n, blockLen)
	fin := flatConcatInput(t, n, blockLen)
	fout := mustIndexBuffers(t, n, blockLen)

	var opErr error
	legacy := testing.AllocsPerRun(runs, func() {
		if _, _, err := m.Concat(in); err != nil {
			opErr = err
		}
	})
	flat := testing.AllocsPerRun(runs, func() {
		if _, err := m.ConcatFlat(fin, fout); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if flat > legacy/2 {
		t.Errorf("flat concat allocates %.0f/op, legacy %.0f/op; want flat <= legacy/2", flat, legacy)
	}
}

// TestFlatRepeatedRuns reuses one machine and one output buffer across
// operations with different shapes, exercising the processor-local
// buffer pools' size adaptation.
func TestFlatRepeatedRuns(t *testing.T) {
	const n = 8
	m := MustNewMachine(n, Ports(2))
	for _, blockLen := range []int{64, 1, 256, 16} {
		fin := flatIndexInput(t, n, blockLen)
		fout := mustIndexBuffers(t, n, blockLen)
		if _, err := m.IndexFlat(fin, fout, WithRadix(3)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !bytes.Equal(fout.Block(i, j), fin.Block(j, i)) {
					t.Fatalf("blockLen %d: out[%d][%d] != in[%d][%d]", blockLen, i, j, j, i)
				}
			}
		}
	}
}

// TestPrimitiveIntoAllocs pins the point of the Into primitives: the
// [][]byte forms copy the caller's blocks in and allocate a result slice
// per member on the way out; the Into forms route everything through
// caller-owned or pooled memory, so their per-call allocation count must
// sit at least n below (what remains is the engine's fixed per-run
// bookkeeping, identical for both). Every measurement starts from a
// fresh machine, so both forms of a primitive see the same pool state.
func TestPrimitiveIntoAllocs(t *testing.T) {
	const n, b, runs = 8, 64, 20
	if raceDetector {
		t.Skip("under -race sync.Pool drops the interpreter's frames at random")
	}
	data := make([]byte, b)
	out, _ := NewConcatBuffers(n, b)
	gin, _ := NewConcatBuffers(n, b)
	gout := make([]byte, n*b)
	vector := benchConcatInput(n, b)
	allocs := func(op func(m *Machine) error) float64 {
		m := MustNewMachine(n)
		return testing.AllocsPerRun(runs, func() {
			if err := op(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name         string
		slices, into func(m *Machine) error
	}{
		{"broadcast",
			func(m *Machine) error { _, _, err := m.Broadcast(0, data); return err },
			func(m *Machine) error { _, err := m.BroadcastInto(0, data, out); return err }},
		{"gather",
			func(m *Machine) error { _, _, err := m.Gather(0, vector); return err },
			func(m *Machine) error { _, err := m.GatherInto(0, gin, gout); return err }},
		{"scatter",
			func(m *Machine) error { _, _, err := m.Scatter(0, vector); return err },
			func(m *Machine) error { _, err := m.ScatterInto(0, gout, out); return err }},
	} {
		slices, into := allocs(tc.slices), allocs(tc.into)
		t.Logf("%s: slices form %.0f allocs/op, Into form %.0f allocs/op", tc.name, slices, into)
		if into > slices-n {
			t.Errorf("%s: the Into form saves only %.0f allocs/op over the slices form (%.0f vs %.0f), want >= %d",
				tc.name, slices-into, into, slices, n)
		}
	}
}

// TestPrimitiveIntoAllocsBounded: on a reused machine at n=16, b=128,
// k=1 the hand-written tree bodies this replaced allocated 97
// (broadcast), 117 (gather) and 96 (scatter) times per call, rebuilding
// the tree on every rank; a cached plan run by the interpreter must not
// allocate more. (It measures 83, 87 and 82: the 75 of the folklore
// concatenation, which runs both trees, plus the transport buffers a
// one-directional tree cannot recycle — its senders' pools only drain.)
func TestPrimitiveIntoAllocsBounded(t *testing.T) {
	const n, b, root, runs = 16, 128, 3, 50
	if raceDetector {
		t.Skip("under -race sync.Pool drops the interpreter's frames at random; the absolute counts are pinned without it")
	}
	m := MustNewMachine(n)
	data := make([]byte, b)
	ranks, _ := NewConcatBuffers(n, b)
	all := make([]byte, n*b)
	for _, tc := range []struct {
		name   string
		parent float64
		call   func() error
	}{
		{"BroadcastInto", 97, func() error { _, err := m.BroadcastInto(root, data, ranks); return err }},
		{"GatherInto", 117, func() error { _, err := m.GatherInto(root, ranks, all); return err }},
		{"ScatterInto", 96, func() error { _, err := m.ScatterInto(root, all, ranks); return err }},
	} {
		got := testing.AllocsPerRun(runs, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/op (hand-written body: %.0f)", tc.name, got, tc.parent)
		if got > tc.parent {
			t.Errorf("%s allocates %.0f times per call, the hand-written body it replaced %.0f", tc.name, got, tc.parent)
		}
	}
}
