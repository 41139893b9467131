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

// bruckTable compiles the Bruck program and returns its Phase 2 rounds:
// the exchange steps, sized by the counter.
func bruckTable(n, k, b int, radixAt func(int) int, noPack bool) []*step {
	pr, _ := bruckProgram(n, k, b, radixAt, noPack, 0, false)
	pr.finish()
	return exchanges(pr, 0)
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

// xferBlocks expands a transfer's send extents into the working-region
// block ids it carries.
func xferBlocks(x xfer) []int {
	var ids []int
	for _, e := range x.send {
		for i := 0; i < int(e.n); i++ {
			ids = append(ids, int(e.at.c)+i)
		}
	}
	return ids
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
		rounds := bruckTable(n, 1, b, func(int) int { return r }, false)
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
				if x.to != plus(z*dist) || x.from != plus(-z*dist) || x.bytes != len(ids)*b || !reflect.DeepEqual(xferBlocks(x), ids) {
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
		rounds := bruckTable(tc.n, tc.k, 1, func(int) int { return tc.r }, false)
		total := 0
		for _, rd := range rounds {
			if len(rd.xfers) == 0 || len(rd.xfers) > tc.k {
				t.Errorf("n=%d k=%d r=%d: round with %d transfers", tc.n, tc.k, tc.r, len(rd.xfers))
			}
			total += len(rd.xfers)
		}
		one := bruckTable(tc.n, 1, 1, func(int) int { return tc.r }, false)
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
	rounds := bruckTable(n, 1, 1, func(i int) int { return radices[i] }, false)
	ri := 0
	weight := 1
	for _, r := range radices {
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		for z := 1; z < h; z++ {
			ids := blocks.SelectAt(n, weight, r, z)
			x := rounds[ri].xfers[0]
			if x.to != plus(z*weight) || !reflect.DeepEqual(xferBlocks(x), ids) {
				t.Fatalf("round %d: to %+v blocks %v, want offset %d blocks %v",
					ri, x.to, xferBlocks(x), z*weight, ids)
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
	packed := bruckTable(n, 1, b, func(int) int { return r }, false)
	unpacked := bruckTable(n, 1, b, func(int) int { return r }, true)
	var wantBlocks, gotBlocks int
	for _, rd := range packed {
		wantBlocks += len(xferBlocks(rd.xfers[0]))
	}
	for _, rd := range unpacked {
		if len(rd.xfers) != 1 || len(xferBlocks(rd.xfers[0])) != 1 || rd.xfers[0].bytes != b {
			t.Fatalf("noPack round %+v is not a single-block round", rd)
		}
		gotBlocks++
	}
	if gotBlocks != wantBlocks {
		t.Fatalf("noPack carries %d blocks, packed carries %d", gotBlocks, wantBlocks)
	}
}

// TestPlanReportsShape: compiled plans expose the schedule's round
// count and largest pooled buffer.
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
	if pl.MaxMessageBytes() != 16*8 {
		t.Errorf("pool hint = %d, want %d (working region)", pl.MaxMessageBytes(), 16*8)
	}
}

// place is one block an extent addresses on one rank.
type place struct {
	reg      regID
	blk      int
	off, len int32
}

// places resolves an extent list block by block for rank me.
func places(pr *program, exts []extent, me int) []place {
	var out []place
	for _, e := range exts {
		for i := 0; i < int(e.n); i++ {
			step := i
			if e.rev {
				step = -i
			}
			out = append(out, place{e.reg, e.at.of(me, pr.n, step), e.off, e.len})
		}
	}
	return out
}

// TestIndexAddressesSlotsInPlace pins the shape of the Bruck index
// program over the whole small grid: no rotation pass (one local step, of
// one block), every slot packed from the input on its first send and
// landed in the output on its last receive with scratch only in between,
// no scratch at all for a single subphase, the r = n member transfer for
// transfer the direct exchange — and each such plan proved by Plan.Check
// and run through the oracle on both transports.
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
					Spec{Op: OpIndex, BlockLen: bl, Index: IndexOptions{Radix: r, Segments: seg}}, uniform})
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
			engines := []*mpsim.Engine{
				mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTransport(mpsim.BackendChan)),
				mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTransport(mpsim.BackendSlot)),
			}
			g := mpsim.WorldGroup(n)
			direct := must(Compile(engines[0], g, Spec{Op: OpIndex, BlockLen: bl, Index: IndexOptions{Algorithm: IndexDirect}})).prog
			for _, v := range variants {
				t.Run(fmt.Sprintf("n=%d/k=%d/%s", n, k, v.name), func(t *testing.T) {
					for _, e := range engines {
						pl, err := Compile(e, g, v.spec)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := Exercise(pl, Labels); err != nil {
							t.Fatal(err)
						}
						if e != engines[0] {
							continue // the program does not depend on the transport
						}
						if viol := pl.Check(); len(viol) != 0 {
							t.Fatalf("Check: %q", viol)
						}
						checkSlotsInPlace(t, pl.prog, v.r)
						if n > 1 && v.r(0) >= n && pl.segments == 0 && !v.spec.Index.NoPack {
							checkSameTransfers(t, pl.prog, direct)
						}
					}
				})
			}
		}
	}
}

// checkSlotsInPlace asserts the in-place addressing of one compiled
// Bruck index program whose subphase i has radix radixAt(i).
func checkSlotsInPlace(t *testing.T, pr *program, radixAt func(int) int) {
	t.Helper()
	n, ro := pr.n, pr.role(0)
	// A slot hops once per non-zero digit, and once per span of it.
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
	if want := subphases > 1; (len(ro.scratch) == 1) != want || len(ro.scratch) > 1 {
		t.Errorf("%d subphases but scratch %v", subphases, ro.scratch)
	}
	type key struct {
		slot int
		off  int32
	}
	sends, recvs := map[key][]regID{}, map[key][]regID{}
	locals := 0
	for i := range ro.steps {
		switch s := &ro.steps[i]; s.kind {
		case stepExchange:
			for _, x := range s.xfers {
				for _, p := range places(pr, x.send, 0) {
					sends[key{p.blk, p.off}] = append(sends[key{p.blk, p.off}], p.reg) // rank 0's input block and scratch slot q are both q
				}
				for _, p := range places(pr, x.recv, 0) {
					q := p.blk
					if p.reg == regOut {
						q = (n - p.blk) % n // rank 0's output block -q
					}
					recvs[key{q, p.off}] = append(recvs[key{q, p.off}], p.reg)
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
	spans := len(sends) / max(1, n-1)
	if len(sends) != spans*(n-1) || len(recvs) != len(sends) {
		t.Fatalf("%d sent and %d received (slot, span) pairs for %d slots", len(sends), len(recvs), n-1)
	}
	for k, regs := range sends {
		back := recvs[k]
		if k.slot == 0 || len(regs) != hops[k.slot] || len(back) != hops[k.slot] {
			t.Fatalf("slot %d span %d: %d sends, %d receives, want %d each", k.slot, k.off, len(regs), len(back), hops[k.slot])
		}
		for i := range regs {
			wantSend, wantRecv := regWork, regWork
			if i == 0 {
				wantSend = regIn
			}
			if i == len(regs)-1 {
				wantRecv = regOut
			}
			if regs[i] != wantSend || back[i] != wantRecv {
				t.Errorf("slot %d span %d hop %d: packed from region %d, landed in region %d, want %d and %d", k.slot, k.off, i, regs[i], back[i], wantSend, wantRecv)
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
