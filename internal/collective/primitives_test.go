package collective

import (
	"bytes"
	"strings"
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
			for transport, e := range sweepEngines(n, k) {
				for _, root := range []int{0, n / 2, n - 1} {
					out, res, err := broadcastSlices(e, mpsim.WorldGroup(n), root, data)
					if err != nil {
						t.Fatalf("Broadcast(%s, n=%d, k=%d, root=%d): %v", transport, n, k, root, err)
					}
					for i := 0; i < n; i++ {
						if !bytes.Equal(out[i], data) {
							t.Fatalf("%s n=%d k=%d root=%d: member %d got %q", transport, n, k, root, i, out[i])
						}
					}
					// Broadcast in a (k+1)-nomial tree is round-optimal.
					if n > 1 {
						if want := intmath.CeilLog(k+1, n); res.C1 != want {
							t.Errorf("%s n=%d k=%d root=%d: C1 = %d, want %d", transport, n, k, root, res.C1, want)
						}
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
			for transport, e := range sweepEngines(n, k) {
				for _, root := range []int{0, n - 1} {
					in := genConcatInput(n, b)
					out, res, err := gatherSlices(e, mpsim.WorldGroup(n), root, in)
					if err != nil {
						t.Fatalf("Gather(%s, n=%d, k=%d, root=%d): %v", transport, n, k, root, err)
					}
					for j := 0; j < n; j++ {
						if !bytes.Equal(out[j], in[j]) {
							t.Fatalf("%s n=%d k=%d root=%d: gathered block %d wrong", transport, n, k, root, j)
						}
					}
					if n > 1 {
						want := intmath.CeilLog(k+1, n)
						if res.C1 != want {
							t.Errorf("%s n=%d k=%d root=%d: C1 = %d, want %d", transport, n, k, root, res.C1, want)
						}
						// Gather's volume matches the concatenation lower
						// bound shape: each round moves at most
						// b*(k+1)^pos.
						bound := 0
						for pos := 0; pos < want; pos++ {
							bound += b * intmath.Pow(k+1, pos)
						}
						if res.C2 > bound {
							t.Errorf("%s n=%d k=%d: gather C2 = %d exceeds doubling bound %d", transport, n, k, res.C2, bound)
						}
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
			for transport, e := range sweepEngines(n, k) {
				for _, root := range []int{0, n / 3} {
					in := genConcatInput(n, b)
					out, res, err := scatterSlices(e, mpsim.WorldGroup(n), root, in)
					if err != nil {
						t.Fatalf("Scatter(%s, n=%d, k=%d, root=%d): %v", transport, n, k, root, err)
					}
					for j := 0; j < n; j++ {
						if !bytes.Equal(out[j], in[j]) {
							t.Fatalf("%s n=%d k=%d root=%d: member %d received wrong block", transport, n, k, root, j)
						}
					}
					if n > 1 {
						if want := intmath.CeilLog(k+1, n); res.C1 != want {
							t.Errorf("%s n=%d k=%d root=%d: C1 = %d, want %d", transport, n, k, root, res.C1, want)
						}
					}
				}
			}
		}
	}
}

func TestPrimitiveRootValidation(t *testing.T) {
	e := mpsim.MustNew(4)
	g := mpsim.WorldGroup(4)
	if _, _, err := broadcastSlices(e, g, 4, []byte{1}); err == nil {
		t.Error("broadcast root out of range accepted")
	}
	if _, _, err := broadcastSlices(e, g, -1, []byte{1}); err == nil {
		t.Error("broadcast negative root accepted")
	}
	if _, _, err := gatherSlices(e, g, 9, genConcatInput(4, 2)); err == nil {
		t.Error("gather root out of range accepted")
	}
	if _, _, err := gatherSlices(e, g, 0, genConcatInput(3, 2)); err == nil {
		t.Error("gather short input accepted")
	}
	if _, _, err := scatterSlices(e, g, 7, genConcatInput(4, 2)); err == nil {
		t.Error("scatter root out of range accepted")
	}
	bad := genConcatInput(4, 2)
	bad[1] = bad[1][:1]
	if _, _, err := scatterSlices(e, g, 0, bad); err == nil {
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
	scattered, _, err := scatterSlices(e, g, 2, in)
	if err != nil {
		t.Fatal(err)
	}
	gathered, _, err := gatherSlices(e, g, 3, scattered)
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
		_, res, err := broadcastSlices(e, mpsim.WorldGroup(tc.n), 0, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if want := lowerbound.ConcatRounds(tc.n, tc.k); res.C1 != want {
			t.Errorf("n=%d k=%d: broadcast C1 = %d, want bound %d", tc.n, tc.k, res.C1, want)
		}
	}
}

// sweepEngines returns one engine per transport the sweeps cover: chan,
// slot, and chaos over slot with a straggling root.
func sweepEngines(n, k int) map[string]*mpsim.Engine {
	return map[string]*mpsim.Engine{
		"chan": mpsim.MustNew(n, mpsim.Ports(k)),
		"slot": mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTransport(mpsim.BackendSlot)),
		"chaos(slot)": mpsim.MustNew(n, mpsim.Ports(k),
			mpsim.WithChaos(mpsim.ChaosConfig{Inner: mpsim.BackendSlot, Seed: 11, Stragglers: []int{0}})),
	}
}

// TestPrimitiveIntoSweep: across sizes, ports, roots and transports the
// compiled primitives deliver the direct reference (out[i] = in[root];
// out[root][j] = in[j]; out[j] = in[root][j]), measure exactly the C1
// and C2 the closed forms predict, and carry the Section 2 bounds.
func TestPrimitiveIntoSweep(t *testing.T) {
	const b = 5
	for _, k := range []int{1, 2, 3} {
		for n := 1; n <= 17; n++ {
			if k > intmath.Max(1, n-1) {
				continue
			}
			for transport, e := range sweepEngines(n, k) {
				for _, root := range []int{0, n / 2, n - 1} {
					g := mpsim.WorldGroup(n)
					measured := func(op string, res *Result, c1, c2, c2lb int) {
						t.Helper()
						if res.C1 != c1 || res.C2 != c2 {
							t.Errorf("%s %s n=%d k=%d root=%d: measured (%d, %d), closed form (%d, %d)", op, transport, n, k, root, res.C1, res.C2, c1, c2)
						}
						if res.C1LowerBound != lowerbound.ConcatRounds(n, k) || res.C2LowerBound != c2lb || res.C1 < res.C1LowerBound || res.C2 < res.C2LowerBound {
							t.Errorf("%s %s n=%d k=%d root=%d: bounds (%d, %d) against measured (%d, %d)", op, transport, n, k, root, res.C1LowerBound, res.C2LowerBound, res.C1, res.C2)
						}
					}

					data := make([]byte, b)
					for x := range data {
						data[x] = byte(37 + x)
					}
					bout, err := buffers.New(n, 1, b)
					if err != nil {
						t.Fatal(err)
					}
					res, err := broadcastInto(e, g, root, data, bout)
					if err != nil {
						t.Fatalf("BroadcastInto(%s, n=%d, k=%d, root=%d): %v", transport, n, k, root, err)
					}
					for i := 0; i < n; i++ {
						if !bytes.Equal(bout.Block(i, 0), data) {
							t.Fatalf("broadcast %s n=%d k=%d root=%d: member %d got %v", transport, n, k, root, i, bout.Block(i, 0))
						}
					}
					c1, c2 := TreeBroadcastCost(n, b, k)
					measured("broadcast", res, c1, c2, lowerbound.ConcatVolume(intmath.Min(n, 2), b, k))

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
					if res, err = gatherInto(e, g, root, gin, gout); err != nil {
						t.Fatalf("GatherInto(%s, n=%d, k=%d, root=%d): %v", transport, n, k, root, err)
					}
					for i := 0; i < n; i++ {
						if !bytes.Equal(gout[i*b:(i+1)*b], gin.Block(i, 0)) {
							t.Fatalf("gather %s n=%d k=%d root=%d: block %d wrong", transport, n, k, root, i)
						}
					}
					c1, c2 = TreeGatherCost(n, b, k)
					measured("gather", res, c1, c2, lowerbound.ConcatVolume(n, b, k))

					sout, err := buffers.New(n, 1, b)
					if err != nil {
						t.Fatal(err)
					}
					if res, err = scatterInto(e, g, root, gout, sout); err != nil {
						t.Fatalf("ScatterInto(%s, n=%d, k=%d, root=%d): %v", transport, n, k, root, err)
					}
					for i := 0; i < n; i++ {
						if !bytes.Equal(sout.Block(i, 0), gout[i*b:(i+1)*b]) {
							t.Fatalf("scatter %s n=%d k=%d root=%d: member %d wrong", transport, n, k, root, i)
						}
					}
					measured("scatter", res, c1, c2, lowerbound.ConcatVolume(n, b, k))
				}
			}
		}
	}
}

// TestRootedPlansCheckClean: Plan.Check proves delivery for the three
// primitives at every root.
func TestRootedPlansCheckClean(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for n := 1; n <= 17; n++ {
			if k > intmath.Max(1, n-1) {
				continue
			}
			e := mpsim.MustNew(n, mpsim.Ports(k))
			for _, op := range []Op{OpBroadcast, OpGather, OpScatter} {
				for root := 0; root < n; root++ {
					pl, err := Compile(e, mpsim.WorldGroup(n), Spec{Op: op, BlockLen: 3, Root: root})
					if err != nil {
						t.Fatalf("%v n=%d k=%d root=%d: %v", op, n, k, root, err)
					}
					if v := pl.Check(); len(v) != 0 {
						t.Fatalf("%v n=%d k=%d root=%d: Check reported:\n  %s", op, n, k, root, strings.Join(v, "\n  "))
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
		if _, err := broadcastInto(e, g, 0, data, bad); err == nil {
			t.Errorf("BroadcastInto accepted bad buffer %+v", bad)
		}
		if _, err := gatherInto(e, g, 0, bad, make([]byte, n*b)); err == nil {
			t.Errorf("GatherInto accepted bad buffer %+v", bad)
		}
		if _, err := scatterInto(e, g, 0, make([]byte, n*b), bad); err == nil {
			t.Errorf("ScatterInto accepted bad buffer %+v", bad)
		}
	}
	if _, err := gatherInto(e, g, 0, good, make([]byte, n*b-1)); err == nil {
		t.Error("GatherInto accepted a short output slice")
	}
	if _, err := scatterInto(e, g, 0, make([]byte, n*b+1), good); err == nil {
		t.Error("ScatterInto accepted a long input slice")
	}
}
