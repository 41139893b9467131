package collective

// Unit tests for the compiled packing layout of index programs, the
// successor of the packDigit/unpackDigit kernels (the paper's Appendix
// A pack and unpack): each transfer's send extents must address exactly
// the blocks SelectDigit/SelectAt enumerate, in increasing id order,
// with the payload size and partner addresses that follow from them.
import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"bruck/internal/blocks"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// bruckTable compiles the Bruck program and returns its Phase 2 rounds,
// the exchange steps, sized by the counter, and the slots each transfer
// carries (carried).
func bruckTable(n, k, b int, radixAt func(int) int, noPack bool) ([]*step, [][][]int) {
	pr := bruckProgram(n, k, b, radixAt, noPack, false, false)
	pr.finish()
	return exchanges(pr, 0), carried(pr)
}

// exchanges returns the exchange steps of one role of a program.
func exchanges(pr *program, me int) []*step {
	var out []*step
	ro := pr.role(me)
	for i := range ro.steps {
		if ro.steps[i].kind == stepExchange {
			out = append(out, &ro.steps[i])
		}
	}
	return out
}

// carried follows the slots of a Bruck index program's rotated order
// through rank 0's exchanges — slot q (span by span) starts in input
// block q, and the i-th place a transfer sends from and the i-th it
// lands in hold the same slot — and returns the slots each transfer of
// each exchange carries, in order; nil if a transfer sends from a place
// no slot has reached.
func carried(pr *program) [][][]int {
	at := map[spot]int{}
	var out [][][]int
	for _, s := range exchanges(pr, 0) {
		var round [][]int
		for _, x := range s.xfers {
			send, recv := places(pr, x.send, 0), places(pr, x.recv, 0)
			var ids []int
			for i, p := range send {
				q, ok := at[p]
				if p.reg == regIn {
					q, ok = p.blk, true
				}
				if !ok || i >= len(recv) {
					return nil
				}
				ids = append(ids, q)
				at[recv[i]] = q
			}
			round = append(round, ids)
		}
		out = append(out, round)
	}
	return out
}

// TestCompiledRoundsMatchSelectDigit cross-validates the uniform-radix
// compiled rounds against the blocks package's digit selection for the
// one-port model, where every transfer is its own round in (pos, z)
// order.
func TestCompiledRoundsMatchSelectDigit(t *testing.T) {
	f := func(nRaw, rRaw, bRaw uint8) bool {
		n := int(nRaw)%20 + 2
		r := int(rRaw)%(n-1) + 2 // 2..n
		if r > n {
			r = n
		}
		b := int(bRaw)%8 + 1
		rounds, slots := bruckTable(n, 1, b, func(int) int { return r }, false)
		w := blocks.NumDigits(n, r)
		dist := 1
		ri := 0
		for pos := 0; pos < w; pos++ {
			h := intmath.Min(r, intmath.CeilDiv(n, dist))
			for z := 1; z < h; z++ {
				if ri >= len(rounds) || len(rounds[ri].xfers) != 1 {
					return false
				}
				x := rounds[ri].xfers[0]
				ids := blocks.SelectDigit(n, r, pos, z)
				if x.to != plus(z*dist) || x.from != plus(-z*dist) || x.bytes != len(ids)*b || !reflect.DeepEqual(slots[ri][0], ids) {
					return false
				}
				ri++
			}
			dist *= r
		}
		return ri == len(rounds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledRoundsKPortGrouping checks that the k-port compiler packs
// up to k consecutive digit values into one round and never more, and
// that grouping neither adds nor drops transfers.
func TestCompiledRoundsKPortGrouping(t *testing.T) {
	for _, tc := range []struct{ n, k, r int }{
		{16, 2, 4}, {16, 3, 4}, {27, 2, 3}, {10, 3, 10}, {64, 3, 8},
	} {
		rounds, _ := bruckTable(tc.n, tc.k, 1, func(int) int { return tc.r }, false)
		total := 0
		for _, rd := range rounds {
			if len(rd.xfers) == 0 || len(rd.xfers) > tc.k {
				t.Errorf("n=%d k=%d r=%d: round with %d transfers", tc.n, tc.k, tc.r, len(rd.xfers))
			}
			total += len(rd.xfers)
		}
		one, _ := bruckTable(tc.n, 1, 1, func(int) int { return tc.r }, false)
		if total != len(one) {
			t.Errorf("n=%d k=%d r=%d: %d transfers, one-port schedule has %d", tc.n, tc.k, tc.r, total, len(one))
		}
	}
}

// TestCompiledMixedRoundsMatchSelectAt validates mixed-radix compiled
// rounds against SelectAt at each digit weight.
func TestCompiledMixedRoundsMatchSelectAt(t *testing.T) {
	n := 24
	radices := []int{2, 3, 4} // product 24
	rounds, slots := bruckTable(n, 1, 1, func(i int) int { return radices[i] }, false)
	ri := 0
	weight := 1
	for _, r := range radices {
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		for z := 1; z < h; z++ {
			ids := blocks.SelectAt(n, weight, r, z)
			x := rounds[ri].xfers[0]
			if x.to != plus(z*weight) || !reflect.DeepEqual(slots[ri][0], ids) {
				t.Fatalf("round %d: to %+v blocks %v, want offset %d blocks %v",
					ri, x.to, slots[ri][0], z*weight, ids)
			}
			ri++
		}
		weight *= r
	}
	if ri != len(rounds) {
		t.Fatalf("compiled %d rounds, enumerated %d", len(rounds), ri)
	}
}

// TestCompiledNoPackRounds: the ablation compiles one single-block
// round per selected block, carrying the same total block count as the
// packed schedule.
func TestCompiledNoPackRounds(t *testing.T) {
	n, r, b := 9, 3, 4
	_, packed := bruckTable(n, 1, b, func(int) int { return r }, false)
	unpacked, one := bruckTable(n, 1, b, func(int) int { return r }, true)
	var wantBlocks, gotBlocks int
	for _, rd := range packed {
		wantBlocks += len(rd[0])
	}
	for i, rd := range unpacked {
		if len(rd.xfers) != 1 || len(one[i][0]) != 1 || rd.xfers[0].bytes != b {
			t.Fatalf("noPack round %+v is not a single-block round", rd)
		}
		gotBlocks++
	}
	if gotBlocks != wantBlocks {
		t.Fatalf("noPack carries %d blocks, packed carries %d", gotBlocks, wantBlocks)
	}
}

// TestPlanReportsShape: compiled plans expose the schedule's round
// count and their identity.
func TestPlanReportsShape(t *testing.T) {
	e := mpsim.MustNew(16)
	g := mpsim.WorldGroup(16)
	pl, err := CompileIndex(e, g, 8, IndexOptions{Radix: 2})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := IndexCost(16, 8, 2, 1)
	if pl.Rounds() != c1 {
		t.Errorf("plan rounds = %d, closed form C1 = %d", pl.Rounds(), c1)
	}
	if pl.Op() != "index" || pl.BlockLen() != 8 || pl.Group() != g {
		t.Errorf("plan identity accessors wrong: %s %d", pl.Op(), pl.BlockLen())
	}
}

// spot is one block an extent addresses on one rank.
type spot struct {
	reg      regID
	blk      int
	off, len int32
}

// places resolves an extent list block by block for rank me.
func places(pr *program, exts []extent, me int) []spot {
	var out []spot
	for _, e := range exts {
		for i := 0; i < int(e.n); i++ {
			step := i
			if e.rev {
				step = -i
			}
			out = append(out, spot{e.reg, e.at.of(me, pr.n, step), e.off, e.len})
		}
	}
	return out
}

// TestIndexAddressesSlotsInPlace pins the shape of the Bruck index
// program over the whole small grid: no rotation pass (one local step, of
// one block), every slot sent from the input on its first hop and landed
// in the output on its last, in between held as a descriptor in its
// output block or, pipelined, in places of its own, no scratch at all
// for a single subphase or with descriptors, the r = n member transfer for transfer
// the direct exchange — and each such plan proved by Plan.Check and run
// through the oracle.
func TestIndexAddressesSlotsInPlace(t *testing.T) {
	const bl = 4
	type variant struct {
		name string
		spec Spec
		r    func(int) int // radix of subphase i
	}
	for n := 1; n <= 20; n++ {
		if raceDetector && n > 4 && n%4 != 0 {
			continue // the race detector slows the proof tenfold: thin the grid
		}
		var variants []variant
		for r := 2; r <= max(2, n); r++ {
			r := min(r, n)
			uniform := func(int) int { return r }
			for _, seg := range []int{0, 2, 4} {
				variants = append(variants, variant{fmt.Sprintf("r=%d/s=%d", r, seg),
					Spec{Op: OpIndex, BlockLen: bl, Index: IndexOptions{Radix: r}, Segments: seg}, uniform})
			}
			variants = append(variants, variant{fmt.Sprintf("r=%d/nopack", r),
				Spec{Op: OpIndex, BlockLen: bl, Index: IndexOptions{Radix: r, NoPack: true}}, uniform})
		}
		for _, radices := range [][]int{{2, 3, 4}, {3, 2, 2}} {
			if ValidateRadices(n, radices) == nil {
				variants = append(variants, variant{fmt.Sprint("mixed=", radices), mixedSpec(bl, radices), func(i int) int { return radices[i] }})
			}
		}
		for k := 1; k <= 3 && k <= max(1, n-1); k++ {
			e := mpsim.MustNew(n, mpsim.Ports(k))
			g := mpsim.WorldGroup(n)
			direct := must(Compile(e, g, Spec{Op: OpIndex, BlockLen: bl, Index: IndexOptions{Algorithm: IndexDirect}})).prog
			for _, v := range variants {
				t.Run(fmt.Sprintf("n=%d/k=%d/%s", n, k, v.name), func(t *testing.T) {
					pl, err := Compile(e, g, v.spec)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := Exercise(pl, Labels); err != nil {
						t.Fatal(err)
					}
					if viol := pl.Check(); len(viol) != 0 {
						t.Fatalf("Check: %q", viol)
					}
					checkSlotsInPlace(t, pl.prog, v.r)
					if n > 1 && v.r(0) >= n && pl.segments == 0 && !v.spec.Index.NoPack {
						checkSameTransfers(t, pl.prog, direct)
					}
				})
			}
		}
	}
}

// checkSlotsInPlace asserts the in-place addressing of one compiled
// Bruck index program whose subphase i has radix radixAt(i): each slot
// (span by span) hops once per non-zero digit, from its input block to
// its output block, no place holding two slots. A program with
// descriptors lands every hop in the output block, all but the last as
// a descriptor, and has no scratch; any other lands every hop in a place
// other than the one it left: the output block or one of up to two
// compact scratch regions (place).
func checkSlotsInPlace(t *testing.T, pr *program, radixAt func(int) int) {
	t.Helper()
	n, ro := pr.n, pr.role(0)
	hops := make([]int, n)
	subphases := 0
	for weight := 1; weight < n; subphases++ {
		r := radixAt(subphases)
		for q := range hops {
			if q/weight%r != 0 {
				hops[q]++
			}
		}
		weight *= r
	}
	descs := false
	for _, s := range ro.steps {
		for _, x := range s.xfers {
			descs = descs || x.desc
		}
	}
	if regions := len(ro.scratch); regions > 0 && (subphases < 2 || descs) || regions > 2 {
		t.Errorf("%d subphases, descriptors %v, but scratch %v", subphases, descs, ro.scratch)
	}
	type key struct {
		slot int
		off  int32
	}
	holds := map[spot]int{} // the slot rank 0 keeps in a place
	moves := map[key][]spot{}
	locals := 0
	for i := range ro.steps {
		switch s := &ro.steps[i]; s.kind {
		case stepExchange:
			for _, x := range s.xfers {
				send, recv, held := places(pr, x.send, 0), places(pr, x.recv, 0), []bool(nil)
				for _, e := range x.recv {
					for range e.n {
						held = append(held, x.desc && e.desc)
					}
				}
				if len(send) != len(recv) {
					t.Fatalf("step %d sends %d places and lands %d", i, len(send), len(recv))
				}
				for j, p := range send {
					q, ok := holds[p]
					if p.reg == regIn {
						q, ok = p.blk, true // rank 0's input block q is slot q
					}
					if !ok {
						t.Fatalf("step %d sends %+v, which holds no slot", i, p)
					}
					if o, taken := holds[recv[j]]; taken && o != q || recv[j] == p && !x.desc {
						t.Fatalf("step %d lands slot %d in %+v, which it leaves or slot %d holds", i, q, recv[j], o)
					}
					delete(holds, p)
					holds[recv[j]] = q
					k := key{q, p.off}
					if len(moves[k]) == 0 {
						moves[k] = append(moves[k], p)
					}
					moves[k] = append(moves[k], recv[j])
					if descs && held[j] != (len(moves[k]) <= hops[q]) {
						t.Errorf("step %d lands hop %d of %d of slot %d as a descriptor: %v", i, len(moves[k])-1, hops[q], q, held[j])
					}
				}
			}
		case stepCopy:
			x := s.xfers[0]
			if locals++; len(x.send) != 1 || len(x.recv) != 1 || x.send[0] != slots(regIn, 0, 1) || x.recv[0] != slots(regOut, 0, 1) {
				t.Errorf("local step moves %+v to %+v, want slot 0 alone", x.send, x.recv)
			}
		default:
			t.Errorf("step %d is of kind %d: only rounds and slot 0's copy belong", i, s.kind)
		}
	}
	if locals != 1 {
		t.Errorf("%d local steps, want 1", locals)
	}
	spans := len(moves) / max(1, n-1)
	if len(moves) != spans*(n-1) {
		t.Fatalf("%d moved (slot, span) pairs for %d slots", len(moves), n-1)
	}
	for k, path := range moves {
		if k.slot == 0 || len(path) != hops[k.slot]+1 {
			t.Fatalf("slot %d span %d: %d hops, want %d", k.slot, k.off, len(path)-1, hops[k.slot])
		}
		if first, last := path[0], path[len(path)-1]; first.reg != regIn || last.reg != regOut || last.blk != (n-k.slot)%n {
			t.Errorf("slot %d span %d goes from %+v to %+v, want input block %d to output block %d", k.slot, k.off, first, last, k.slot, (n-k.slot)%n)
		}
		for _, p := range path[1 : len(path)-1] {
			if p.reg == regIn || p.reg > regWork+1 || descs && p != path[len(path)-1] {
				t.Errorf("slot %d span %d passes through %+v", k.slot, k.off, p)
			}
		}
	}
}

// checkSameTransfers asserts two shared-role programs are the same steps
// moving the same blocks between the same ranks, phase tags aside.
func checkSameTransfers(t *testing.T, got, want *program) {
	t.Helper()
	a, b := got.role(0), want.role(0)
	if len(a.steps) != len(b.steps) || len(a.scratch) != len(b.scratch) {
		t.Fatalf("%d steps on %d scratch regions, want %d on %d", len(a.steps), len(a.scratch), len(b.steps), len(b.scratch))
	}
	for i := range a.steps {
		x, y := a.steps[i], b.steps[i]
		if x.kind != y.kind || x.n != y.n || len(x.xfers) != len(y.xfers) {
			t.Fatalf("step %d: %+v, want %+v", i, x, y)
		}
		for j := range x.xfers {
			for me := 0; me < got.n; me++ {
				p, q := x.xfers[j], y.xfers[j]
				if p.to != q.to || p.from != q.from || !reflect.DeepEqual(places(got, p.send, me), places(want, q.send, me)) ||
					!reflect.DeepEqual(places(got, p.recv, me), places(want, q.recv, me)) {
					t.Fatalf("step %d transfer %d on rank %d: %+v, want %+v", i, j, me, p, q)
				}
			}
		}
	}
}
