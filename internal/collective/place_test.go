package collective

import (
	"fmt"
	"slices"
	"testing"

	"bruck/internal/mpsim"
)

// TestPlace holds the placement pass to its contract on every grid cell
// (PlaceHolds); TestPlaceGolden does on the golden corpus.
func TestPlace(t *testing.T) {
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			gridCells(f, func(where string, n, k int, groupOf []int, s Spec) {
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(groupOf))
				PlaceHolds(t, where, e, mpsim.WorldGroup(n), s)
			})
		})
	}
}

// PlaceHolds compiles s twice, plain — as its compiler built it, every
// transfer packed — and placed, and requires the placed plan to pass
// Check, to send what the plain one sends (C1, C2, Messages), to copy no
// more on any rank (moved), and to be maximal: forcing ref on any
// top-level transfer place left packed makes Check report errRefWrite.
// It is exported for TestPlaceGolden.
func PlaceHolds(t *testing.T, where string, e *mpsim.Engine, g *mpsim.Group, s Spec) {
	t.Helper()
	if err := s.canonicalize(e, g); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	plain, err := compile(e, g, s, false)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	placed := must(compile(e, g, s, true))
	if v := placed.Check(); len(v) > 0 {
		t.Fatalf("%s: placed, Check reports %q", where, v)
	}
	if placed.c1 != plain.c1 || placed.res.C2 != plain.res.C2 || !slices.Equal(placed.Messages(), plain.Messages()) {
		t.Fatalf("%s: placed C1=%d C2=%d, plain C1=%d C2=%d, or their messages differ", where, placed.c1, placed.res.C2, plain.c1, plain.res.C2)
	}
	for me := range g.Size() {
		if got, was := placed.prog.moved(me), plain.prog.moved(me); got > was {
			t.Errorf("%s: rank %d moves %d bytes placed, %d plain", where, me, got, was)
		}
	}
	for r := range placed.prog.roles {
		for i := range placed.prog.roles[r].steps {
			for j := range placed.prog.roles[r].steps[i].xfers {
				x := &placed.prog.roles[r].steps[i].xfers[j]
				if placed.prog.roles[r].steps[i].kind != stepExchange || x.to.mode == addrNone || x.swap || x.ref {
					continue
				}
				x.ref = true
				if v := placed.Check(); !mentions(v, "before every receiver may have landed them") {
					t.Errorf("%s: role %d step %d transfer %d is packed, but Check clears it by reference: %q", where, r, i, j, v)
				}
				x.ref = false
			}
		}
	}
}

// TestPlaceExtents pins what placement costs the flat radix-2 index in
// scratch blocks and extents: the compact regions of place against the
// n-block region and bound of the placement it replaced (20 blocks and
// 39 extents at n = 16, 1,816 and 2,744 at n = 1,024).
func TestPlaceExtents(t *testing.T) {
	for _, tc := range []struct{ n, blocks, exts int }{{16, 15, 38}, {1024, 1805, 2546}} {
		pl := must(Compile(mpsim.MustNew(tc.n), mpsim.WorldGroup(tc.n), Spec{Op: OpIndex, BlockLen: 1, Index: IndexOptions{Radix: 2}}))
		ro, blocks, exts := pl.prog.roles[0], 0, 0
		for _, sc := range ro.scratch {
			blocks += sc.bytes / sc.stride
		}
		for _, s := range ro.steps {
			for _, x := range s.xfers {
				exts += len(x.send) + len(x.recv)
			}
		}
		if got := fmt.Sprint(blocks, exts); got != fmt.Sprint(tc.blocks, tc.exts) {
			t.Errorf("n=%d: %s scratch blocks and extents, want %d %d", tc.n, got, tc.blocks, tc.exts)
		}
	}
}
