package collective

import (
	"slices"
	"strings"
	"testing"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// family is one schedule family of the driver grid (gridCells),
// as a spec for each group size n.
type family struct {
	name string
	pow2 bool // the family needs a power-of-two n
	wide bool // the grid runs the family at n 13..16 too
	spec func(n int) Spec
}

// families lists every schedule family — ragged ones with zero-length
// blocks and zero rows, segmented, hierarchical (on groups of three) and
// rooted ones included. The wide ones are the index and concatenation
// families at every radix and last-round policy, the ragged ones and
// both allreduces.
func families() []family {
	kernel := must(KernelOptions(buffers.Sum, buffers.Int32))
	reduce := func(op Op, alg ReduceAlgorithm, segments int) func(int) Spec {
		return func(int) Spec {
			o := kernel
			o.Algorithm = alg
			return Spec{Op: op, BlockLen: 8, Reduce: o, Segments: segments}
		}
	}
	index := func(o IndexOptions) func(int) Spec {
		return func(int) Spec { return Spec{Op: OpIndex, BlockLen: 4, Index: o} }
	}
	concat := func(o ConcatOptions) func(int) Spec {
		return func(int) Spec { return Spec{Op: OpConcat, BlockLen: 5, Concat: o} }
	}
	hier := func(op Op) func(int) Spec {
		return func(n int) Spec {
			var groups []int
			for left := n; left > 0; left -= 3 {
				groups = append(groups, min(3, left))
			}
			topo, _ := costmodel.NewTopology(groups, costmodel.SP1, costmodel.SP1)
			return Spec{Op: op, BlockLen: 8, Hierarchical: true, Topology: topo, Reduce: kernel}
		}
	}
	rooted := func(op Op) func(int) Spec {
		return func(n int) Spec { return Spec{Op: op, BlockLen: 4, Root: n - 1} }
	}
	return []family{
		{"bruck", false, true, index(IndexOptions{})},
		{"bruck-r2", false, true, index(IndexOptions{Radix: 2})},
		{"bruck-nopack", false, false, index(IndexOptions{Radix: 2, NoPack: true})},
		{"bruck-rn", false, true, func(n int) Spec {
			return Spec{Op: OpIndex, BlockLen: 4, Index: IndexOptions{Radix: max(2, n)}}
		}},
		{"mixed", false, false, func(n int) Spec {
			radices := []int{}
			for w := 1; w < n; w *= radices[len(radices)-1] {
				radices = append(radices, 2+len(radices)%2)
			}
			return mixedSpec(4, radices)
		}},
		{"direct", false, true, index(IndexOptions{Algorithm: IndexDirect})},
		{"xor", true, true, index(IndexOptions{Algorithm: IndexPairwiseXOR})},
		{"segmented", false, false, func(int) Spec {
			return Spec{Op: OpIndex, BlockLen: 7, Segments: 3}
		}},
		{"circulant", false, true, concat(ConcatOptions{})}, // trivial where k >= n-1
		{"circulant-min-rounds", false, true, concat(ConcatOptions{LastRound: partition.MinRounds})},
		{"circulant-min-volume", false, true, concat(ConcatOptions{LastRound: partition.MinVolume})},
		{"folklore", false, false, concat(ConcatOptions{Algorithm: ConcatFolklore})},
		{"ring", false, false, concat(ConcatOptions{Algorithm: ConcatRing})},
		{"recdbl", true, false, concat(ConcatOptions{Algorithm: ConcatRecursiveDoubling})},
		{"indexv", false, true, func(n int) Spec {
			counts := make([][]int, n)
			for i := range counts {
				counts[i] = make([]int, n)
				for j := range counts[i] {
					counts[i][j] = (i*7 + j*3 + i*j) % 6
				}
			}
			l, _ := blocks.Ragged(counts)
			return Spec{Op: OpIndexV, Layout: l}
		}},
		{"indexv-zero-rows", false, false, func(n int) Spec {
			counts := make([][]int, n)
			for i := range counts {
				counts[i] = make([]int, n)
				for j := range counts[i] {
					if i%3 != 1 {
						counts[i][j] = 1 + (i+2*j)%5
					}
				}
			}
			l, _ := blocks.Ragged(counts)
			return Spec{Op: OpIndexV, Layout: l}
		}},
		{"concatv", false, true, func(n int) Spec {
			counts := make([]int, n)
			for i := range counts {
				counts[i] = (i*7 + 3) % 6
			}
			l, _ := blocks.RaggedVector(counts)
			return Spec{Op: OpConcatV, Layout: l}
		}},
		{"reducescatter-ring", false, false, reduce(OpReduceScatter, ReduceRing, 0)},
		{"reducescatter-halving", true, false, reduce(OpReduceScatter, ReduceHalving, 0)},
		{"reducescatter-bruck", false, false, reduce(OpReduceScatter, ReduceBruck, 0)},
		{"reducescatter-bruck-s3", false, false, reduce(OpReduceScatter, ReduceBruck, 3)},
		{"allreduce", false, true, reduce(OpAllReduce, ReduceBruck, 2)},
		{"allreduce-ring", false, true, reduce(OpAllReduce, ReduceRing, 0)},
		{"hier-index", false, false, hier(OpIndex)},
		{"hier-concat", false, false, hier(OpConcat)},
		{"hier-allreduce", false, false, hier(OpAllReduce)},
		{"broadcast", false, false, rooted(OpBroadcast)},
		{"gather", false, false, rooted(OpGather)},
		{"scatter", false, false, rooted(OpScatter)},
	}
}

// recorded runs pl once through the oracle on its recording engine e,
// requires the run's events to be exactly the messages the program
// predicts, and returns them.
func recorded(t *testing.T, e *mpsim.Engine, pl *Plan) []mpsim.Event {
	t.Helper()
	if _, err := Exercise(pl, Labels); err != nil {
		t.Fatalf("Exercise: %v", err)
	}
	got, want := e.Metrics().Events(), pl.Messages()
	if !slices.Equal(got, want) {
		t.Fatalf("the run recorded\n  %v\nthe program predicts\n  %v", got, want)
	}
	return got
}

// roundsOf counts the rounds of a (round, src, dst)-sorted event stream
// that carry at least one message.
func roundsOf(evs []mpsim.Event) int {
	c := 0
	for i, ev := range evs {
		if i == 0 || evs[i-1].Round != ev.Round {
			c++
		}
	}
	return c
}

// recordedIndex compiles and runs one index plan on a recording engine.
func recordedIndex(t *testing.T, n, k, b int, opt IndexOptions, eopts ...mpsim.Option) (*Plan, []mpsim.Event) {
	t.Helper()
	e := mpsim.MustNew(n, append([]mpsim.Option{mpsim.Ports(k), mpsim.Record(true)}, eopts...)...)
	pl, err := CompileIndex(e, mpsim.WorldGroup(n), b, opt)
	if err != nil {
		t.Fatalf("CompileIndex: %v", err)
	}
	return pl, recorded(t, e, pl)
}

// recordedConcat is recordedIndex for concatenation plans.
func recordedConcat(t *testing.T, n, k, b int, opt ConcatOptions) (*Plan, []mpsim.Event) {
	t.Helper()
	e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.Record(true))
	pl, err := CompileConcat(e, mpsim.WorldGroup(n), b, opt)
	if err != nil {
		t.Fatalf("CompileConcat: %v", err)
	}
	return pl, recorded(t, e, pl)
}

// recordedReduce is recordedIndex for sum/int32 reductions.
func recordedReduce(t *testing.T, n, k, b int, kind ReduceKind, alg ReduceAlgorithm) (*Plan, []mpsim.Event) {
	t.Helper()
	opt, err := KernelOptions(buffers.Sum, buffers.Int32)
	if err != nil {
		t.Fatal(err)
	}
	opt.Algorithm = alg
	e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.Record(true))
	pl, err := CompileReduce(e, mpsim.WorldGroup(n), kind, b, opt)
	if err != nil {
		t.Fatalf("CompileReduce: %v", err)
	}
	return pl, recorded(t, e, pl)
}

// TestScheduleExportIndexBruck: the radix-3 Bruck index program predicts
// the whole execution, round for round.
func TestScheduleExportIndexBruck(t *testing.T) {
	pl, evs := recordedIndex(t, 6, 2, 4, IndexOptions{Radix: 3})
	if pl.Op() != "index" || pl.Algorithm() != "bruck" {
		t.Fatalf("meta: op %q alg %q", pl.Op(), pl.Algorithm())
	}
	if got := roundsOf(evs); got != pl.Rounds() {
		t.Fatalf("%d rounds recorded, c1 = %d", got, pl.Rounds())
	}
}

// TestScheduleExportFormulaIndex: the direct and pairwise-XOR index
// programs predict their executions too; XOR rounds are pairwise
// exchanges.
func TestScheduleExportFormulaIndex(t *testing.T) {
	for _, alg := range []IndexAlgorithm{IndexDirect, IndexPairwiseXOR} {
		pl, evs := recordedIndex(t, 8, 2, 4, IndexOptions{Algorithm: alg})
		if got := roundsOf(evs); got != pl.Rounds() {
			t.Errorf("%v: %d rounds recorded, c1 = %d", alg, got, pl.Rounds())
		}
		if alg != IndexPairwiseXOR {
			continue
		}
		for _, ev := range evs {
			back := mpsim.Event{Round: ev.Round, Src: ev.Dst, Dst: ev.Src, Size: ev.Size, Class: ev.Class}
			if !slices.Contains(evs, back) {
				t.Errorf("xor: %v has no reply in its round", ev)
			}
		}
	}
}

// TestScheduleExportCirculant: doubling and last rounds cover the whole
// execution, the program has a last round for n=7, k=2, and every rank
// receives each other rank's block exactly once.
func TestScheduleExportCirculant(t *testing.T) {
	const n, b = 7, 5
	pl, evs := recordedConcat(t, n, 2, b, ConcatOptions{})
	if pl.Algorithm() != "circulant" {
		t.Fatalf("algorithm %q", pl.Algorithm())
	}
	if got := roundsOf(evs); got != pl.Rounds() {
		t.Fatalf("%d rounds recorded, c1 = %d", got, pl.Rounds())
	}
	if !strings.Contains(pl.Listing(), `exchange "last"`) {
		t.Errorf("no last-round exchange for n=7, k=2:\n%s", pl.Listing())
	}
	got := make([]int, n)
	for _, ev := range evs {
		got[ev.Dst] += ev.Size
	}
	for r, bytes := range got {
		if bytes != (n-1)*b {
			t.Errorf("rank %d received %dB, want %dB", r, bytes, (n-1)*b)
		}
	}
}

// TestScheduleExportTrivial: k >= n-1 compiles the single all-pairs
// round.
func TestScheduleExportTrivial(t *testing.T) {
	const n, b = 4, 6
	pl, evs := recordedConcat(t, n, 3, b, ConcatOptions{})
	listing := pl.Listing()
	if strings.Count(listing, " exchange ") != 1 || !strings.Contains(listing, `exchange "trivial"`) {
		t.Fatalf("want one trivial exchange, got\n%s", listing)
	}
	if len(evs) != n*(n-1) || roundsOf(evs) != 1 {
		t.Fatalf("%d messages in %d rounds, want %d in 1", len(evs), roundsOf(evs), n*(n-1))
	}
	for _, ev := range evs {
		if ev.Size != b {
			t.Errorf("%v: want %dB", ev, b)
		}
	}
}

// TestScheduleExportAllReduce: a Bruck-reduce allreduce — index rounds
// then concatenation rounds — is predicted over the whole execution.
func TestScheduleExportAllReduce(t *testing.T) {
	pl, evs := recordedReduce(t, 6, 2, 8, AllReduceKind, ReduceBruck)
	if pl.Op() != "allreduce" {
		t.Fatalf("op %q", pl.Op())
	}
	if got := roundsOf(evs); got != pl.Rounds() {
		t.Fatalf("%d rounds recorded, c1 = %d", got, pl.Rounds())
	}
}

// TestScheduleExportRingReduce: the ring reduce-scatter runs n-1 rounds,
// every message to the same ring neighbour.
func TestScheduleExportRingReduce(t *testing.T) {
	const n = 5
	_, evs := recordedReduce(t, n, 1, 4, ReduceScatterKind, ReduceRing)
	if got := roundsOf(evs); got != n-1 {
		t.Errorf("%d rounds recorded, want %d", got, n-1)
	}
	for _, ev := range evs {
		if d := intmath.Mod(ev.Dst-ev.Src, n); d != 1 && d != n-1 || d != intmath.Mod(evs[0].Dst-evs[0].Src, n) {
			t.Errorf("%v is not a step to the ring neighbour of %v", ev, evs[0])
		}
	}
}

// TestScheduleTransportIndependent: the same plan run under the chaos
// transport records exactly the chan run's messages, and both compile
// the same program.
func TestScheduleTransportIndependent(t *testing.T) {
	plainPl, plain := recordedIndex(t, 9, 2, 4, IndexOptions{Radix: 3})
	chaosPl, chaos := recordedIndex(t, 9, 2, 4, IndexOptions{Radix: 3},
		mpsim.WithChaos(mpsim.ChaosConfig{Seed: 11, Stragglers: []int{0, 4}}))
	if !slices.Equal(chaos, plain) {
		t.Fatalf("chaos run diverges from chan run:\n  %v\n  %v", chaos, plain)
	}
	if chaosPl.Listing() != plainPl.Listing() {
		t.Fatal("listings differ across transports")
	}
}
