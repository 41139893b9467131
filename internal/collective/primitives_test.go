package collective

import (
	"bytes"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
)

func TestBroadcastSweep(t *testing.T) {
	data := []byte("the-broadcast-payload")
	for _, k := range []int{1, 2, 3} {
		for n := 1; n <= 30; n++ {
			if k > intmath.Max(1, n-1) {
				continue
			}
			for _, root := range []int{0, n / 2, n - 1} {
				if root < 0 {
					continue
				}
				e := mpsim.MustNew(n, mpsim.Ports(k))
				out, res, err := Broadcast(e, mpsim.WorldGroup(n), root, data)
				if err != nil {
					t.Fatalf("Broadcast(n=%d, k=%d, root=%d): %v", n, k, root, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(out[i], data) {
						t.Fatalf("n=%d k=%d root=%d: member %d got %q", n, k, root, i, out[i])
					}
				}
				// Broadcast in a (k+1)-nomial tree is round-optimal.
				if n > 1 {
					if want := intmath.CeilLog(k+1, n); res.C1 != want {
						t.Errorf("n=%d k=%d root=%d: C1 = %d, want %d", n, k, root, res.C1, want)
					}
				}
			}
		}
	}
}

func TestGatherSweep(t *testing.T) {
	const b = 3
	for _, k := range []int{1, 2, 3} {
		for n := 1; n <= 30; n++ {
			if k > intmath.Max(1, n-1) {
				continue
			}
			for _, root := range []int{0, n - 1} {
				in := genConcatInput(n, b)
				e := mpsim.MustNew(n, mpsim.Ports(k))
				out, res, err := Gather(e, mpsim.WorldGroup(n), root, in)
				if err != nil {
					t.Fatalf("Gather(n=%d, k=%d, root=%d): %v", n, k, root, err)
				}
				for j := 0; j < n; j++ {
					if !bytes.Equal(out[j], in[j]) {
						t.Fatalf("n=%d k=%d root=%d: gathered block %d wrong", n, k, root, j)
					}
				}
				if n > 1 {
					want := intmath.CeilLog(k+1, n)
					if res.C1 != want {
						t.Errorf("n=%d k=%d root=%d: C1 = %d, want %d", n, k, root, res.C1, want)
					}
					// Gather's volume matches the concatenation lower
					// bound shape: each round moves at most
					// b*(k+1)^pos.
					bound := 0
					for pos := 0; pos < want; pos++ {
						bound += b * intmath.Pow(k+1, pos)
					}
					if res.C2 > bound {
						t.Errorf("n=%d k=%d: gather C2 = %d exceeds doubling bound %d", n, k, res.C2, bound)
					}
				}
			}
		}
	}
}

func TestScatterSweep(t *testing.T) {
	const b = 4
	for _, k := range []int{1, 2, 3} {
		for n := 1; n <= 30; n++ {
			if k > intmath.Max(1, n-1) {
				continue
			}
			for _, root := range []int{0, n / 3} {
				in := genConcatInput(n, b)
				e := mpsim.MustNew(n, mpsim.Ports(k))
				out, res, err := Scatter(e, mpsim.WorldGroup(n), root, in)
				if err != nil {
					t.Fatalf("Scatter(n=%d, k=%d, root=%d): %v", n, k, root, err)
				}
				for j := 0; j < n; j++ {
					if !bytes.Equal(out[j], in[j]) {
						t.Fatalf("n=%d k=%d root=%d: member %d received wrong block", n, k, root, j)
					}
				}
				if n > 1 {
					if want := intmath.CeilLog(k+1, n); res.C1 != want {
						t.Errorf("n=%d k=%d root=%d: C1 = %d, want %d", n, k, root, res.C1, want)
					}
				}
			}
		}
	}
}

func TestPrimitiveRootValidation(t *testing.T) {
	e := mpsim.MustNew(4)
	g := mpsim.WorldGroup(4)
	if _, _, err := Broadcast(e, g, 4, []byte{1}); err == nil {
		t.Error("broadcast root out of range accepted")
	}
	if _, _, err := Broadcast(e, g, -1, []byte{1}); err == nil {
		t.Error("broadcast negative root accepted")
	}
	if _, _, err := Gather(e, g, 9, genConcatInput(4, 2)); err == nil {
		t.Error("gather root out of range accepted")
	}
	if _, _, err := Gather(e, g, 0, genConcatInput(3, 2)); err == nil {
		t.Error("gather short input accepted")
	}
	if _, _, err := Scatter(e, g, 7, genConcatInput(4, 2)); err == nil {
		t.Error("scatter root out of range accepted")
	}
	bad := genConcatInput(4, 2)
	bad[1] = bad[1][:1]
	if _, _, err := Scatter(e, g, 0, bad); err == nil {
		t.Error("scatter ragged input accepted")
	}
}

// TestGatherScatterInverse: scatter followed by gather restores the
// original blocks on a subgroup.
func TestGatherScatterInverse(t *testing.T) {
	e := mpsim.MustNew(9, mpsim.Ports(2))
	g, err := mpsim.NewGroup([]int{8, 1, 6, 3, 0}, 9)
	if err != nil {
		t.Fatal(err)
	}
	in := genConcatInput(g.Size(), 5)
	scattered, _, err := Scatter(e, g, 2, in)
	if err != nil {
		t.Fatal(err)
	}
	gathered, _, err := Gather(e, g, 3, scattered)
	if err != nil {
		t.Fatal(err)
	}
	for j := range in {
		if !bytes.Equal(gathered[j], in[j]) {
			t.Errorf("block %d not restored", j)
		}
	}
}

// TestBroadcastMeetsRoundLowerBound: with k ports, data can reach at
// most (k+1)^d processors in d rounds (Proposition 2.1's counting
// argument); our broadcast achieves that bound exactly.
func TestBroadcastMeetsRoundLowerBound(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{16, 1}, {9, 2}, {27, 2}, {64, 3}, {17, 1}, {10, 2}} {
		e := mpsim.MustNew(tc.n, mpsim.Ports(tc.k))
		_, res, err := Broadcast(e, mpsim.WorldGroup(tc.n), 0, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if want := lowerbound.ConcatRounds(tc.n, tc.k); res.C1 != want {
			t.Errorf("n=%d k=%d: broadcast C1 = %d, want bound %d", tc.n, tc.k, res.C1, want)
		}
	}
}

// TestPrimitiveIntoSweep: the caller-owned-memory variants produce the
// same bytes as their allocating counterparts across sizes, ports and
// roots.
func TestPrimitiveIntoSweep(t *testing.T) {
	const b = 5
	for _, k := range []int{1, 2, 3} {
		for n := 1; n <= 17; n++ {
			if k > intmath.Max(1, n-1) {
				continue
			}
			for _, root := range []int{0, n / 2, n - 1} {
				if root < 0 {
					continue
				}
				e := mpsim.MustNew(n, mpsim.Ports(k))
				g := mpsim.WorldGroup(n)

				data := make([]byte, b)
				for x := range data {
					data[x] = byte(37 + x)
				}
				bout, err := buffers.New(n, 1, b)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := BroadcastInto(e, g, root, data, bout); err != nil {
					t.Fatalf("BroadcastInto(n=%d, k=%d, root=%d): %v", n, k, root, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(bout.Block(i, 0), data) {
						t.Fatalf("broadcast n=%d k=%d root=%d: member %d got %v", n, k, root, i, bout.Block(i, 0))
					}
				}

				gin, err := buffers.New(n, 1, b)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					for x := 0; x < b; x++ {
						gin.Block(i, 0)[x] = byte(i*b + x)
					}
				}
				gout := make([]byte, n*b)
				if _, err := GatherInto(e, g, root, gin, gout); err != nil {
					t.Fatalf("GatherInto(n=%d, k=%d, root=%d): %v", n, k, root, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(gout[i*b:(i+1)*b], gin.Block(i, 0)) {
						t.Fatalf("gather n=%d k=%d root=%d: block %d wrong", n, k, root, i)
					}
				}

				sout, err := buffers.New(n, 1, b)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ScatterInto(e, g, root, gout, sout); err != nil {
					t.Fatalf("ScatterInto(n=%d, k=%d, root=%d): %v", n, k, root, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(sout.Block(i, 0), gout[i*b:(i+1)*b]) {
						t.Fatalf("scatter n=%d k=%d root=%d: member %d wrong", n, k, root, i)
					}
				}
			}
		}
	}
}

// TestPrimitiveIntoShapeValidation: wrong-shaped destination buffers
// are rejected before any communication.
func TestPrimitiveIntoShapeValidation(t *testing.T) {
	const n, b = 6, 4
	e := mpsim.MustNew(n)
	g := mpsim.WorldGroup(n)
	good, _ := buffers.New(n, 1, b)
	wrongProcs, _ := buffers.New(n+1, 1, b)
	wrongBlocks, _ := buffers.New(n, 2, b)
	wrongLen, _ := buffers.New(n, 1, b+1)
	data := make([]byte, b)
	for _, bad := range []*buffers.Buffers{nil, wrongProcs, wrongBlocks, wrongLen} {
		if _, err := BroadcastInto(e, g, 0, data, bad); err == nil {
			t.Errorf("BroadcastInto accepted bad buffer %+v", bad)
		}
		if _, err := GatherInto(e, g, 0, bad, make([]byte, n*b)); err == nil {
			t.Errorf("GatherInto accepted bad buffer %+v", bad)
		}
		if _, err := ScatterInto(e, g, 0, make([]byte, n*b), bad); err == nil {
			t.Errorf("ScatterInto accepted bad buffer %+v", bad)
		}
	}
	if _, err := GatherInto(e, g, 0, good, make([]byte, n*b-1)); err == nil {
		t.Error("GatherInto accepted a short output slice")
	}
	if _, err := ScatterInto(e, g, 0, make([]byte, n*b+1), good); err == nil {
		t.Error("ScatterInto accepted a long input slice")
	}
}

// TestPrimitiveIntoAllocs pins the point of the Into variants: the
// legacy primitives allocate at least one result slice per member per
// run; the Into variants route results through caller-owned or pooled
// memory, so their per-run allocation count must sit at least n below
// the legacy one (the remaining allocations are the engine's fixed
// per-Run bookkeeping, identical for both paths).
func TestPrimitiveIntoAllocs(t *testing.T) {
	const n, b, runs = 8, 64, 20
	g := mpsim.WorldGroup(n)
	data := make([]byte, b)
	out, _ := buffers.New(n, 1, b)
	gin, _ := buffers.New(n, 1, b)
	gout := make([]byte, n*b)
	legacyIn := make([][]byte, n)
	for i := range legacyIn {
		legacyIn[i] = make([]byte, b)
	}
	// Every measurement starts from a fresh engine, so both variants of
	// a primitive see the same pool state: what an earlier measurement
	// left in the rank-local pools (the broadcast's receivers keep b-byte
	// buffers the gather's senders would reuse) must not decide the
	// comparison.
	allocs := func(op func(e *mpsim.Engine)) float64 {
		e := mpsim.MustNew(n)
		return testing.AllocsPerRun(runs, func() { op(e) })
	}
	check := func(name string, legacy, into float64) {
		t.Helper()
		t.Logf("%s: legacy %.0f allocs/op, into %.0f allocs/op", name, legacy, into)
		if into > legacy-n {
			t.Errorf("%s: Into variant saves only %.0f allocs/op over legacy (%.0f vs %.0f), want >= %d",
				name, legacy-into, into, legacy, n)
		}
	}
	check("broadcast",
		allocs(func(e *mpsim.Engine) {
			if _, _, err := Broadcast(e, g, 0, data); err != nil {
				t.Fatal(err)
			}
		}),
		allocs(func(e *mpsim.Engine) {
			if _, err := BroadcastInto(e, g, 0, data, out); err != nil {
				t.Fatal(err)
			}
		}))
	check("gather",
		allocs(func(e *mpsim.Engine) {
			if _, _, err := Gather(e, g, 0, legacyIn); err != nil {
				t.Fatal(err)
			}
		}),
		allocs(func(e *mpsim.Engine) {
			if _, err := GatherInto(e, g, 0, gin, gout); err != nil {
				t.Fatal(err)
			}
		}))
	check("scatter",
		allocs(func(e *mpsim.Engine) {
			if _, _, err := Scatter(e, g, 0, legacyIn); err != nil {
				t.Fatal(err)
			}
		}),
		allocs(func(e *mpsim.Engine) {
			if _, err := ScatterInto(e, g, 0, gout, out); err != nil {
				t.Fatal(err)
			}
		}))
}
