package collective

import (
	"fmt"
	"slices"
	"testing"

	"bruck/internal/buffers"
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
// A plan with descriptors must walk to Verify at W = 1..4, name only
// origins that hold what the label walk gives each block (originsHold),
// and marking any output land of a descriptor transfer desc must make
// Check report errDescOut. It is exported for TestPlaceGolden.
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
	descs := false
	for r := range placed.prog.roles {
		for i := range placed.prog.roles[r].steps {
			for j := range placed.prog.roles[r].steps[i].xfers {
				x := &placed.prog.roles[r].steps[i].xfers[j]
				descs = descs || x.desc
				for e := range x.recv {
					if x.desc && !x.recv[e].desc && x.recv[e].reg == regOut {
						x.recv[e].desc = true
						if v := placed.Check(); !mentions(v, "ends the walk held as a descriptor") {
							t.Errorf("%s: role %d step %d transfer %d lands %s as descriptors, but Check reports %q", where, r, i, j, extents(x.recv[e:e+1]), v)
						}
						x.recv[e].desc = false
					}
				}
				if placed.prog.roles[r].steps[i].kind != stepExchange || x.to.mode == addrNone || x.swap || x.ref || x.desc {
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
	for w := 1; descs && w <= 4; w++ {
		walked(t, fmt.Sprintf("%s placed W=%d", where, w), w, Labels, placed)
	}
	if descs {
		originsHold(t, where, placed)
	}
}

// originsHold requires each origin a one-role plan names to be exactly
// the label the label walk gives the block it stands for, on every rank,
// when the byte walk reads it: after the round of a descriptor transfer
// that lands the block as bytes, or at the local step that reads it.
func originsHold(t *testing.T, where string, pl *Plan) {
	t.Helper()
	pr, n := pl.prog, pl.group.Size()
	type read struct {
		done int // the rounds the walk has completed at the read
		x    *xfer
		recv bool
	}
	var reads []read
	for i, round := 0, 0; i < len(pr.roles[0].steps); i++ {
		switch s := &pr.roles[0].steps[i]; {
		case s.kind == stepExchange:
			for j := range s.xfers {
				if x := &s.xfers[j]; x.desc {
					reads = append(reads, read{round + 1, x, true})
				}
			}
		case s.xfers != nil && s.xfers[0].origins != nil:
			reads = append(reads, read{round, &s.xfers[0], false})
		}
		round += pr.roles[0].steps[i].rounds()
	}
	named := 0
	pl.walkLabels(nil, func(lm *labels, done int) {
		for _, rd := range reads {
			ext := rd.x.send
			if rd.recv {
				ext = rd.x.recv
			}
			for me := 0; rd.done == done && me < n; me++ {
				org := rd.x.origins
				for _, e := range ext {
					for b := 0; b < int(e.n); b++ {
						if rd.recv && e.held(rd.x.combine) {
							continue
						}
						if len(org) == 0 {
							t.Fatalf("%s: %s names too few origins", where, extents(ext))
						}
						og := org[0]
						if org = org[1:]; og.peer.mode == addrNone {
							continue
						}
						off, ln := e.bytes(pr.shapeOf(e.reg, me), me, n, b)
						got := clip(lm.mems[me][int(e.reg)], off, ln)
						o := og.peer.of(me, n, 0)
						src, _ := pr.shapeOf(regIn, o).span(og.blk.of(o, n, 0))
						if named++; len(got) != 1 || got[0].n != ln || got[0].cnt != 1 || got[0].who != rankHash(o) || got[0].src != src+int(e.off) {
							t.Fatalf("%s: rank %d reads block %d of %s from rank %d's input block %d, but it holds %+v",
								where, me, b, extents([]extent{e}), o, og.blk.of(o, n, 0), got)
						}
					}
				}
				if len(org) > 0 {
					t.Fatalf("%s: %s names %d origins too many", where, extents(ext), len(org))
				}
			}
		}
	})
	if named == 0 {
		t.Fatalf("%s: descriptors, but no origin named", where)
	}
}

// TestPlaceExtents pins what placement costs the flat radix-2 index in
// scratch blocks and extents: descriptors need no scratch, where the
// compact regions of by-reference hops took 15 blocks at n = 16 and
// 1,805 at n = 1,024 (in 38 and 2,546 extents); a descriptor land joins
// no byte land, so there are a few more extents. The builder's slabs
// (bruckSizes) hold exactly the steps, transfers and extents the
// program keeps: bruckRounds appends each run of slots as one extent a
// side, the run's head apart on the send side, and place joins none.
func TestPlaceExtents(t *testing.T) {
	for _, tc := range []struct{ n, blocks, exts int }{{16, 0, 39}, {1024, 0, 2559}} {
		pl := must(Compile(mpsim.MustNew(tc.n), mpsim.WorldGroup(tc.n), Spec{Op: OpIndex, BlockLen: 1, Index: IndexOptions{Radix: 2}}))
		ro, blocks, xfers, exts := pl.prog.roles[0], 0, 0, 0
		for _, sc := range ro.scratch {
			blocks += sc.bytes / sc.stride
		}
		for _, s := range ro.steps {
			xfers += len(s.xfers)
			for _, x := range s.xfers {
				exts += len(x.send) + len(x.recv)
			}
		}
		if got := fmt.Sprint(blocks, exts); got != fmt.Sprint(tc.blocks, tc.exts) {
			t.Errorf("n=%d: %s scratch blocks and extents, want %d %d", tc.n, got, tc.blocks, tc.exts)
		}
		steps, xs, es := bruckSizes(tc.n, 1, func(int) int { return 2 }, false, true)
		if got, want := fmt.Sprint(len(ro.steps), xfers, exts), fmt.Sprint(steps, xs, es); got != want {
			t.Errorf("n=%d: the program keeps %s steps, transfers and extents, its slabs hold %s", tc.n, got, want)
		}
	}
}

// descs counts the descriptor transfers of a plan's top-level roles.
func descs(pl *Plan) int {
	count := 0
	for _, ro := range pl.prog.roles {
		for _, s := range ro.steps {
			for _, x := range s.xfers {
				if x.desc {
					count++
				}
			}
		}
	}
	return count
}

// TestDescriptorsSkipPipelines pins place's choice for a program that
// pipeline splits: no descriptor, by-reference hops through compact
// scratch instead, where each span would need a descriptor of its own.
func TestDescriptorsSkipPipelines(t *testing.T) {
	e := mpsim.MustNew(8)
	for _, seg := range []int{0, 2, 4} {
		pl := must(Compile(e, mpsim.WorldGroup(8), Spec{Op: OpIndex, BlockLen: 4, Index: IndexOptions{Radix: 2}, Segments: seg}))
		if got := descs(pl); (got > 0) == (pl.segments > 1) {
			t.Errorf("segments=%d: %d descriptor transfers", pl.segments, got)
		}
	}
}

// TestDescriptorsNeedUnaliasedMemory: a descriptor reads its origin's
// input long after it was formed, so an output that aliases the input
// would let a land overwrite what a descriptor still reads. fits rejects
// such a Memory before any walk starts, so no descriptor is ever formed
// on it: the engine keeps no walk state.
func TestDescriptorsNeedUnaliasedMemory(t *testing.T) {
	e := mpsim.MustNew(8)
	pl := must(Compile(e, mpsim.WorldGroup(8), Spec{Op: OpIndex, BlockLen: 4, Index: IndexOptions{Radix: 2}}))
	if descs(pl) == 0 {
		t.Fatal("the radix-2 index sends no descriptors")
	}
	side := must(buffers.New(8, 8, 4))
	const want = "collective: flat output must not alias the input"
	if _, err := pl.Run(pl.Memory(side, side)); err == nil || err.Error() != want {
		t.Errorf("Run: %v, want %q", err, want)
	}
	if _, err := ExecutePlans(e, []Job{{pl, pl.Memory(side, side)}}); err == nil || err.Error() != want+" (plan 0)" {
		t.Errorf("ExecutePlans: %v, want %q", err, want+" (plan 0)")
	}
	var state any
	e.Inline(func(s *any, _ *mpsim.Team) error { state = *s; return nil })
	if state != nil {
		t.Errorf("a walk ran on the aliased memory: %T", state)
	}
}
