package circulant

import (
	"reflect"
	"sort"
	"testing"

	"bruck/internal/intmath"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(0, []int{1}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewGraph(5, []int{5}); err == nil {
		t.Error("offset 0 mod n accepted")
	}
	if _, err := NewGraph(5, []int{0}); err == nil {
		t.Error("offset 0 accepted")
	}
	g, err := NewGraph(9, []int{1, 2, 10, -8})
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	// 10 mod 9 = 1 (duplicate), -8 mod 9 = 1 (duplicate).
	if got := g.Offsets(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Offsets = %v, want [1 2]", got)
	}
}

func TestNeighbors(t *testing.T) {
	g, _ := NewGraph(9, []int{1, 3})
	got := g.Neighbors(0)
	want := []int{1, 3, 6, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors(0) = %v, want %v", got, want)
	}
	// Symmetry: v in Neighbors(u) iff u in Neighbors(v).
	for u := 0; u < 9; u++ {
		for _, v := range g.Neighbors(u) {
			found := false
			for _, back := range g.Neighbors(v) {
				if back == u {
					found = true
				}
			}
			if !found {
				t.Errorf("asymmetric adjacency: %d->%d", u, v)
			}
		}
	}
}

func TestOffsetSets(t *testing.T) {
	// n=9, k=2: d=2, so only S_0 = {1,2} for the first phase.
	got := OffsetSets(9, 2)
	want := [][]int{{1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OffsetSets(9,2) = %v, want %v", got, want)
	}
	// n=64, k=1: d=6, S_i = {2^i} for i=0..4.
	got = OffsetSets(64, 1)
	want = [][]int{{1}, {2}, {4}, {8}, {16}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OffsetSets(64,1) = %v, want %v", got, want)
	}
	// n=100, k=3: d = ceil(log4 100) = 4, S_i = {4^i, 2*4^i, 3*4^i}.
	got = OffsetSets(100, 3)
	want = [][]int{{1, 2, 3}, {4, 8, 12}, {16, 32, 48}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OffsetSets(100,3) = %v, want %v", got, want)
	}
	if OffsetSets(1, 1) != nil {
		t.Error("OffsetSets(1,1) should be nil")
	}
	// n <= k+1: single round, empty first phase.
	if got := OffsetSets(4, 3); len(got) != 0 {
		t.Errorf("OffsetSets(4,3) = %v, want empty", got)
	}
}

// TestFig7TreeT0 reproduces Figure 7: the two rounds constructing the
// spanning tree rooted at node 0 for n = 9, k = 2. Round 0 adds edges
// with offsets {1,2}; round 1 adds edges with offsets {3,6} from each of
// nodes 0, 1, 2.
func TestFig7TreeT0(t *testing.T) {
	tree, err := BuildFullTree(9, 2, 0, Positive)
	if err != nil {
		t.Fatalf("BuildFullTree: %v", err)
	}
	if err := tree.Validate(Positive); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tree.Rounds(); got != 2 {
		t.Fatalf("Rounds = %d, want 2", got)
	}
	round0 := tree.RoundEdges(0)
	want0 := []Edge{{0, 1, 0}, {0, 2, 0}}
	if !reflect.DeepEqual(round0, want0) {
		t.Errorf("round 0 edges = %v, want %v", round0, want0)
	}
	round1 := tree.RoundEdges(1)
	want1 := []Edge{{0, 3, 1}, {0, 6, 1}, {1, 4, 1}, {1, 7, 1}, {2, 5, 1}, {2, 8, 1}}
	if !reflect.DeepEqual(round1, want1) {
		t.Errorf("round 1 edges = %v, want %v", round1, want1)
	}
	if got := tree.Nodes(); len(got) != 9 {
		t.Errorf("tree spans %d nodes, want 9", len(got))
	}
}

// TestFig8Translation reproduces Figure 8: T_1 for n = 9, k = 2 is T_0
// with one added (mod 9) to every label, with round ids preserved.
func TestFig8Translation(t *testing.T) {
	t0, err := BuildFullTree(9, 2, 0, Positive)
	if err != nil {
		t.Fatal(err)
	}
	t1 := t0.Translate(1)
	if t1.Root != 1 {
		t.Errorf("T1 root = %d, want 1", t1.Root)
	}
	if err := t1.Validate(Positive); err != nil {
		t.Fatalf("T1 invalid: %v", err)
	}
	want1 := []Edge{{1, 2, 0}, {1, 3, 0}}
	if got := t1.RoundEdges(0); !reflect.DeepEqual(got, want1) {
		t.Errorf("T1 round 0 = %v, want %v", got, want1)
	}
	// Round 1: from nodes 1,2,3 with offsets 3 and 6: 1->4, 1->7, 2->5,
	// 2->8, 3->6, 3->0 (9 mod 9).
	want2 := []Edge{{1, 4, 1}, {1, 7, 1}, {2, 5, 1}, {2, 8, 1}, {3, 0, 1}, {3, 6, 1}}
	if got := t1.RoundEdges(1); !reflect.DeepEqual(got, want2) {
		t.Errorf("T1 round 1 = %v, want %v", got, want2)
	}
}

// TestTranslationEqualsRebuild: building T_i directly equals translating
// T_0 by i, for both directions.
func TestTranslationEqualsRebuild(t *testing.T) {
	for _, dir := range []Dir{Positive, Negative} {
		for _, tc := range []struct{ n, k int }{{9, 2}, {16, 1}, {27, 2}, {13, 3}, {64, 1}} {
			t0, err := BuildTree(tc.n, tc.k, 0, dir)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
			}
			for root := 1; root < tc.n; root += intmath.Max(1, tc.n/5) {
				direct, err := BuildTree(tc.n, tc.k, root, dir)
				if err != nil {
					t.Fatalf("n=%d k=%d root=%d: %v", tc.n, tc.k, root, err)
				}
				translated := t0.Translate(root)
				if !sameEdgeSet(direct.Edges, translated.Edges) {
					t.Errorf("n=%d k=%d root=%d dir=%v: direct build != translated T0",
						tc.n, tc.k, root, dir)
				}
			}
		}
	}
}

// TestFirstPhaseSpansN1: Theorem 4.1's structural claim across a sweep.
func TestFirstPhaseSpansN1(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for n := 2; n <= 100; n++ {
			tree, err := BuildTree(n, k, 0, Negative)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if err := tree.Validate(Negative); err != nil {
				t.Errorf("n=%d k=%d: %v", n, k, err)
			}
			d := intmath.CeilLog(k+1, n)
			n1 := intmath.Pow(k+1, d-1)
			if got := len(tree.Nodes()); got != n1 {
				t.Errorf("n=%d k=%d: spans %d, want n1=%d", n, k, got, n1)
			}
			if got := tree.Rounds(); n1 > 1 && got != d-1 {
				t.Errorf("n=%d k=%d: %d rounds, want %d", n, k, got, d-1)
			}
		}
	}
}

// TestFullTreeSpansAll: the full tree spans all n nodes in d rounds.
func TestFullTreeSpansAll(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for n := 2; n <= 100; n++ {
			tree, err := BuildFullTree(n, k, 0, Positive)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if err := tree.Validate(Positive); err != nil {
				t.Errorf("n=%d k=%d: %v", n, k, err)
			}
			if got := len(tree.Nodes()); got != n {
				t.Errorf("n=%d k=%d: spans %d, want %d", n, k, got, n)
			}
			d := intmath.CeilLog(k+1, n)
			if got := tree.Rounds(); got != d {
				t.Errorf("n=%d k=%d: %d rounds, want d=%d", n, k, got, d)
			}
		}
	}
}

// TestTreeGrowthRate: after round i the tree has exactly
// min((k+1)^(i+1), target) nodes — the k-port growth bound of
// Proposition 2.1 is met with equality.
func TestTreeGrowthRate(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{64, 1}, {81, 2}, {100, 3}, {30, 2}} {
		tree, err := BuildFullTree(tc.n, tc.k, 0, Positive)
		if err != nil {
			t.Fatal(err)
		}
		count := 1
		for round := 0; round < tree.Rounds(); round++ {
			count += len(tree.RoundEdges(round))
			want := intmath.Min(intmath.Pow(tc.k+1, round+1), tc.n)
			if count != want {
				t.Errorf("n=%d k=%d: after round %d have %d nodes, want %d",
					tc.n, tc.k, round, count, want)
			}
		}
	}
}

func TestBuildTreeErrors(t *testing.T) {
	if _, err := BuildTree(0, 1, 0, Positive); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BuildTree(5, 0, 0, Positive); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := BuildTree(5, 1, 5, Positive); err == nil {
		t.Error("root out of range accepted")
	}
	if _, err := BuildTree(5, 1, -1, Positive); err == nil {
		t.Error("negative root accepted")
	}
}

func TestSingleNodeTree(t *testing.T) {
	tree, err := BuildTree(1, 1, 0, Positive)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Edges) != 0 || tree.Rounds() != 0 {
		t.Errorf("single-node tree has edges/rounds: %+v", tree)
	}
	if err := tree.Validate(Positive); err != nil {
		t.Error(err)
	}
}

func sameEdgeSet(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(e Edge) [3]int { return [3]int{e.Parent, e.Child, e.Round} }
	as := make([][3]int, len(a))
	bs := make([][3]int, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	less := func(x, y [3]int) bool {
		if x[0] != y[0] {
			return x[0] < y[0]
		}
		if x[1] != y[1] {
			return x[1] < y[1]
		}
		return x[2] < y[2]
	}
	sort.Slice(as, func(i, j int) bool { return less(as[i], as[j]) })
	sort.Slice(bs, func(i, j int) bool { return less(bs[i], bs[j]) })
	return reflect.DeepEqual(as, bs)
}

// TestTreeOrderIsDeterministic: a tree is built through a map, and
// neither its edge list nor its node list shows the map's order —
// every build of one tree lists the same edges in the same order, and
// Nodes is sorted.
func TestTreeOrderIsDeterministic(t *testing.T) {
	first, err := BuildFullTree(64, 3, 5, Positive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		again, err := BuildFullTree(64, 3, 5, Positive)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Edges, first.Edges) {
			t.Fatal("two builds of one tree list their edges in different orders")
		}
		if !sort.IntsAreSorted(again.Nodes()) {
			t.Fatalf("Nodes() = %v is not sorted", again.Nodes())
		}
	}
}
