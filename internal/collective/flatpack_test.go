package collective

// Unit tests for the compiled packing layout of index programs, the
// successor of the packDigit/unpackDigit kernels (the paper's Appendix
// A pack and unpack): each transfer's send extents must address exactly
// the blocks SelectDigit/SelectAt enumerate, in increasing id order,
// with the payload size and partner addresses that follow from them.
import (
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
	pr, _ := bruckProgram(n, k, b, radixAt, noPack, 0)
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
