package costmodel

import (
	"math"
	"strings"
	"testing"
)

func mustTopo(t *testing.T, spec string) *Topology {
	t.Helper()
	topo, err := ParseTopology(spec)
	if err != nil {
		t.Fatalf("ParseTopology(%q): %v", spec, err)
	}
	return topo
}

func TestTopologyShapeAccessors(t *testing.T) {
	topo, err := NewTopology([]int{4, 4, 3}, SP1, Scaled(SP1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.N(); got != 11 {
		t.Fatalf("N = %d, want 11", got)
	}
	if got := topo.NumGroups(); got != 3 {
		t.Fatalf("NumGroups = %d, want 3", got)
	}
	wantGroup := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2}
	for r, g := range wantGroup {
		if got := topo.GroupOf(r); got != g {
			t.Fatalf("GroupOf(%d) = %d, want %d", r, got, g)
		}
	}
	for _, r := range []int{-1, 11, 100} {
		if got := topo.GroupOf(r); got != -1 {
			t.Fatalf("GroupOf(%d) = %d, want -1", r, got)
		}
	}
	asg := topo.GroupAssignment()
	if len(asg) != 11 {
		t.Fatalf("GroupAssignment length %d, want 11", len(asg))
	}
	for r, g := range asg {
		if g != wantGroup[r] {
			t.Fatalf("GroupAssignment[%d] = %d, want %d", r, g, wantGroup[r])
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	intra, inter := SP1, Scaled(SP1, 10)
	cases := []struct {
		name string
		topo Topology
		want string // substring of the error, "" for valid
	}{
		{"valid", Topology{Groups: []int{2, 2}, Intra: intra, Inter: inter}, ""},
		{"no groups", Topology{Intra: intra, Inter: inter}, "no groups"},
		{"empty group", Topology{Groups: []int{2, 0}, Intra: intra, Inter: inter}, "empty groups"},
		{"bad intra", Topology{Groups: []int{2}, Intra: Profile{Beta: -1}, Inter: inter}, "intra profile"},
		{"bad inter", Topology{Groups: []int{2}, Intra: intra, Inter: Profile{}}, "inter profile"},
	}
	for _, c := range cases {
		err := c.topo.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}
	var nilTopo *Topology
	if err := nilTopo.Validate(); err == nil {
		t.Error("nil topology validated")
	}
	if _, err := NewTopology([]int{3, -1}, intra, inter); err == nil {
		t.Error("NewTopology accepted a negative group")
	}
}

func TestTopologyParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		spec   string
		groups []int
		out    string // canonical Spec; "" means same as spec
	}{
		{"4x4", []int{4, 4, 4, 4}, ""},
		{"1x7", []int{7}, ""},
		{"4,4,3", []int{4, 4, 3}, ""},
		{"2, 3", []int{2, 3}, "2,3"},
		{"5,5", []int{5, 5}, "2x5"},
	}
	for _, c := range cases {
		topo := mustTopo(t, c.spec)
		if len(topo.Groups) != len(c.groups) {
			t.Fatalf("%q: groups %v, want %v", c.spec, topo.Groups, c.groups)
		}
		for i, m := range c.groups {
			if topo.Groups[i] != m {
				t.Fatalf("%q: groups %v, want %v", c.spec, topo.Groups, c.groups)
			}
		}
		want := c.out
		if want == "" {
			want = c.spec
		}
		if got := topo.Spec(); got != want {
			t.Errorf("%q: Spec = %q, want %q", c.spec, got, want)
		}
		if topo.Name != topo.Spec() {
			t.Errorf("%q: Name %q != Spec %q", c.spec, topo.Name, topo.Spec())
		}
		// Default profiles: SP1 intra, a 10:1 inter.
		if topo.Intra.Beta != SP1.Beta || topo.Inter.Beta != SP1.Beta*DefaultInterRatio {
			t.Errorf("%q: default profiles intra=%+v inter=%+v", c.spec, topo.Intra, topo.Inter)
		}
	}
}

func TestTopologyParseProfiles(t *testing.T) {
	topo := mustTopo(t, "2x4:29e-6,0.117e-6/29e-5,0.117e-5")
	if topo.Intra.Beta != 29e-6 || topo.Intra.Tau != 0.117e-6 {
		t.Fatalf("intra = %+v", topo.Intra)
	}
	if topo.Inter.Beta != 29e-5 || topo.Inter.Tau != 0.117e-5 {
		t.Fatalf("inter = %+v", topo.Inter)
	}
	for _, bad := range []string{
		"", ":", "0x4", "4x0", "ax4", "4xb", "4,,3", "4,x",
		"4x4:29e-6,1e-7", "4x4:a,b/c,d", "4x4:1e-6/1e-5", "4x4:1e-6,1e-7/1e-5",
	} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

func TestTopologyTrivial(t *testing.T) {
	if !mustTopo(t, "1x8").Trivial() {
		t.Error("single group should be trivial")
	}
	if !mustTopo(t, "8x1").Trivial() {
		t.Error("singleton groups should be trivial")
	}
	if mustTopo(t, "4x4").Trivial() {
		t.Error("4x4 should not be trivial")
	}
	if mustTopo(t, "4,4,3").Trivial() {
		t.Error("4,4,3 should not be trivial")
	}
}

func TestTopologyLinkClassAndProfiles(t *testing.T) {
	topo := mustTopo(t, "4x4")
	if c := topo.LinkClass(0, 3); c != LinkIntra {
		t.Fatalf("LinkClass(0,3) = %v", c)
	}
	if c := topo.LinkClass(3, 4); c != LinkInter {
		t.Fatalf("LinkClass(3,4) = %v", c)
	}
	if LinkIntra.String() != "intra" || LinkInter.String() != "inter" {
		t.Fatalf("class names %q %q", LinkIntra, LinkInter)
	}
	if s := LinkClass(7).String(); !strings.Contains(s, "7") {
		t.Fatalf("unknown class renders %q", s)
	}
	if got := topo.ClassProfile(LinkIntra); got.Beta != topo.Intra.Beta {
		t.Fatal("ClassProfile(intra) != Intra")
	}
	if got := topo.ClassProfile(LinkInter); got.Beta != topo.Inter.Beta {
		t.Fatal("ClassProfile(inter) != Inter")
	}
}

func TestTopologyLevelAndFlatTime(t *testing.T) {
	topo := mustTopo(t, "4x4")
	want := topo.Intra.Time(3, 12) + topo.Inter.Time(2, 8)
	if got := topo.LevelTime(3, 12, 2, 8); math.Abs(got-want) > 1e-18 {
		t.Fatalf("LevelTime = %g, want %g", got, want)
	}
	if got := topo.FlatTime(5, 20); math.Abs(got-topo.Inter.Time(5, 20)) > 1e-18 {
		t.Fatalf("FlatTime prices multi-group machines at Inter; got %g", got)
	}
	single := mustTopo(t, "1x8")
	if got := single.FlatTime(5, 20); math.Abs(got-single.Intra.Time(5, 20)) > 1e-18 {
		t.Fatalf("FlatTime on one group should price Intra; got %g", got)
	}
	// A schedule that keeps most rounds intra beats a flat one with the
	// same totals on a 10:1 machine — the reason hierarchy pays off.
	hier := topo.LevelTime(4, 16, 2, 8)
	flat := topo.FlatTime(6, 24)
	if hier >= flat {
		t.Fatalf("hier %g should beat flat %g on a 10:1 machine", hier, flat)
	}
}

func TestTopologyScaled(t *testing.T) {
	p := Scaled(SP1, 10)
	if p.Beta != SP1.Beta*10 || p.Tau != SP1.Tau*10 {
		t.Fatalf("Scaled = %+v", p)
	}
	if !strings.Contains(p.Name, "x10") {
		t.Fatalf("Scaled name %q", p.Name)
	}
}

func TestTopologyDigestAndEqual(t *testing.T) {
	a := mustTopo(t, "4x4")
	b := mustTopo(t, "4x4")
	if !a.Equal(b) || a.Digest() != b.Digest() {
		t.Fatal("identical topologies must be Equal with equal digests")
	}
	// Names don't participate.
	b.Name = "renamed"
	if !a.Equal(b) || a.Digest() != b.Digest() {
		t.Fatal("names must not affect Equal or Digest")
	}
	// Each priced dimension does.
	for _, mutate := range []func(*Topology){
		func(t *Topology) { t.Groups = []int{4, 4, 4, 3} },
		func(t *Topology) { t.Groups = []int{8, 8} },
		func(t *Topology) { t.Intra.Tau *= 2 },
		func(t *Topology) { t.Inter.Beta *= 2 },
	} {
		m := mustTopo(t, "4x4")
		mutate(m)
		if a.Equal(m) {
			t.Fatalf("mutated topology %+v compares Equal", m)
		}
		if a.Digest() == m.Digest() {
			t.Fatalf("mutated topology %+v collides on Digest", m)
		}
	}
	var nilTopo *Topology
	if nilTopo.Equal(a) || a.Equal(nilTopo) {
		t.Fatal("nil compares equal to non-nil")
	}
	if !nilTopo.Equal(nil) {
		t.Fatal("nil must equal nil")
	}
}
