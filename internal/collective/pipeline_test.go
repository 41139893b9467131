package collective

// Tests for segment-pipelined plans: byte-equivalence of the pipelined
// executor with the monolithic one over the (n, k, r, segments) grid on
// every transport, the compiler's clamping rules, the closed-form cost
// agreement (SegmentedIndexCost must equal the compiled measures
// exactly), static Check acceptance, and segment-boundary fuzzing.

import (
	"bytes"
	"fmt"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// runSegmentedIndex executes one segmented index configuration on the
// given transport and verifies the transpose; it returns the result and
// the compiled plan.
func runSegmentedIndex(t *testing.T, e *mpsim.Engine, n, blockLen, r, s int) (*Result, [][][]byte, *Plan) {
	t.Helper()
	g := mpsim.WorldGroup(n)
	opt := IndexOptions{Algorithm: IndexBruck, Radix: r, Segments: s}
	pl, err := CompileIndex(e, g, blockLen, opt)
	if err != nil {
		t.Fatalf("CompileIndex(n=%d b=%d r=%d s=%d): %v", n, blockLen, r, s, err)
	}
	in := genIndexInput(n, blockLen)
	out, res, err := indexSlices(e, g, in, opt)
	if err != nil {
		t.Fatalf("Index(n=%d b=%d r=%d s=%d): %v", n, blockLen, r, s, err)
	}
	checkTranspose(t, in, out, fmt.Sprintf("n=%d b=%d r=%d s=%d", n, blockLen, r, s))
	return res, out, pl
}

// TestPipelinedIndexEquivalenceGrid: for every (n, k, segments) cell of
// the grid, on both plain transports, the pipelined execution must
// produce byte-identical output to the monolithic one (both are the
// transpose, so equivalence reduces to both passing checkTranspose) and
// the Report must match the compiled pipelined measures.
func TestPipelinedIndexEquivalenceGrid(t *testing.T) {
	const blockLen = 9 // 9 % {2, 4, 7} != 0: uneven spans on every cell
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		for n := 1; n <= 16; n++ {
			kmax := 3
			if kmax > n-1 {
				kmax = n - 1
			}
			if kmax < 1 {
				kmax = 1
			}
			for k := 1; k <= kmax; k++ {
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTransport(backend))
				for _, s := range []int{1, 2, 4, 7} {
					res, _, pl := runSegmentedIndex(t, e, n, blockLen, 2, s)
					if res.C1 != pl.c1 || res.C2 != pl.c2 {
						t.Errorf("%v n=%d k=%d s=%d: report (%d, %d), plan predicts (%d, %d)",
							backend, n, k, s, res.C1, res.C2, pl.c1, pl.c2)
					}
					if pl.segments > 1 {
						mono, _ := IndexCost(n, blockLen, 2, k)
						if want := costmodel.PipelinedC1(mono, pl.segments); res.C1 != want {
							t.Errorf("%v n=%d k=%d s=%d: c1=%d, want pipelined %d", backend, n, k, s, res.C1, want)
						}
					}
				}
			}
		}
	}
}

// TestPipelinedIndexUnderChaos: the pipelined schedule is byte-correct
// under adversarial timing with stragglers — ownership-transfer rounds
// tolerate reordering and slow nodes exactly like the copying rounds.
func TestPipelinedIndexUnderChaos(t *testing.T) {
	for _, inner := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		for _, tc := range []struct{ n, k, s int }{{8, 1, 4}, {16, 2, 4}, {7, 1, 2}, {12, 3, 7}} {
			e := mpsim.MustNew(tc.n, mpsim.Ports(tc.k),
				mpsim.WithChaos(mpsim.ChaosConfig{Inner: inner, Seed: 42, Stragglers: []int{0, tc.n / 2}}))
			runSegmentedIndex(t, e, tc.n, 9, 2, tc.s)
		}
	}
}

// TestPipelinedReduceEquivalence: segmented ReduceBruck reduce-scatter
// and allreduce produce bit-identical bytes to their monolithic
// counterparts (the combine order is unchanged: all spans arrive before
// the fold), across segment counts and both plain transports.
func TestPipelinedReduceEquivalence(t *testing.T) {
	const blockLen = 12 // 3 int32 elements
	kern, err := buffers.Kernel(buffers.Sum, buffers.Int32)
	if err != nil {
		t.Fatalf("buffers.Kernel: %v", err)
	}
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		for _, tc := range []struct{ n, k int }{{4, 1}, {7, 1}, {8, 2}, {16, 1}, {16, 3}} {
			e := mpsim.MustNew(tc.n, mpsim.Ports(tc.k), mpsim.WithTransport(backend))
			g := mpsim.WorldGroup(tc.n)
			var base []byte
			for _, s := range []int{0, 2, 4, 7} {
				opt := ReduceOptions{Algorithm: ReduceBruck, Radix: 2, Kernel: kern,
					ElemSize: 4, KernelKey: "sum/int32", Segments: s}
				in, _ := buffers.FromMatrix(genIndexInput(tc.n, blockLen))
				out, _ := buffers.New(tc.n, tc.n, blockLen)
				if _, err := runFlat(e, g, in, out, Spec{Op: OpAllReduce, Reduce: opt}); err != nil {
					t.Fatalf("%v n=%d k=%d s=%d: %v", backend, tc.n, tc.k, s, err)
				}
				if base == nil {
					base = append([]byte(nil), out.Bytes()...)
				} else if !bytes.Equal(base, out.Bytes()) {
					t.Errorf("%v n=%d k=%d s=%d: allreduce bytes differ from monolithic", backend, tc.n, tc.k, s)
				}
			}
		}
	}
}

// TestFinishSegmentsClamps pins the compiler's clamping rules: the
// configurations that cannot pipeline — baselines, noPack, single-round
// schedules, blocks too small to split — compile monolithic, and a
// segment request past the block size clamps to it.
func TestFinishSegmentsClamps(t *testing.T) {
	e := mpsim.MustNew(8)
	g := mpsim.WorldGroup(8)
	compile := func(blockLen int, opt IndexOptions) *Plan {
		t.Helper()
		pl, err := CompileIndex(e, g, blockLen, opt)
		if err != nil {
			t.Fatalf("CompileIndex(b=%d, %+v): %v", blockLen, opt, err)
		}
		return pl
	}
	for _, tc := range []struct {
		name string
		bl   int
		opt  IndexOptions
		want int
	}{
		{"plain", 8, IndexOptions{Radix: 2, Segments: 3}, 3},
		{"monolithic-0", 8, IndexOptions{Radix: 2}, 0},
		{"monolithic-1", 8, IndexOptions{Radix: 2, Segments: 1}, 0},
		{"direct", 8, IndexOptions{Algorithm: IndexDirect, Segments: 4}, 0},
		{"nopack", 8, IndexOptions{Radix: 2, NoPack: true, Segments: 4}, 0},
		{"tiny-block", 1, IndexOptions{Radix: 2, Segments: 4}, 0},
		{"clamp-to-block", 2, IndexOptions{Radix: 2, Segments: 7}, 2},
		{"clamp-to-rounds", 64, IndexOptions{Radix: 2, Segments: 64}, 3},
	} {
		if got := compile(tc.bl, tc.opt).Segments(); got != tc.want {
			t.Errorf("%s: Segments() = %d, want %d", tc.name, got, tc.want)
		}
	}

	// A single-round schedule (n = 2: one offset) cannot pipeline.
	e2 := mpsim.MustNew(2)
	pl, err := CompileIndex(e2, mpsim.WorldGroup(2), 8, IndexOptions{Radix: 2, Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Segments(); got != 0 {
		t.Errorf("single-round: Segments() = %d, want 0", got)
	}
}

// TestSegmentedIndexCostMatchesPlan: the closed-form SegmentedIndexCost
// must equal the compiled plan's (c1, c2) exactly on every cell — it is
// the prediction OptimalSegments and the sweep harness trust.
func TestSegmentedIndexCostMatchesPlan(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 12, 16, 17} {
		for _, r := range []int{2, 3, n} {
			if r < 2 || r > n {
				continue
			}
			for _, k := range []int{1, 2} {
				if k >= n {
					continue
				}
				e := mpsim.MustNew(n, mpsim.Ports(k))
				g := mpsim.WorldGroup(n)
				for _, b := range []int{1, 2, 9, 64} {
					for _, s := range []int{1, 2, 4, 7, 100} {
						pl, err := CompileIndex(e, g, b, IndexOptions{Algorithm: IndexBruck, Radix: r, Segments: s})
						if err != nil {
							t.Fatal(err)
						}
						c1, c2 := SegmentedIndexCost(n, b, r, k, s)
						if pl.c1 != c1 || pl.c2 != c2 {
							t.Errorf("n=%d r=%d k=%d b=%d s=%d: plan (%d, %d), SegmentedIndexCost (%d, %d)",
								n, r, k, b, s, pl.c1, pl.c2, c1, c2)
						}
					}
				}
			}
		}
	}
}

// TestSegmentedPlanCheck: compiled pipelined plans pass static
// verification, and a corrupted segment table is caught.
func TestSegmentedPlanCheck(t *testing.T) {
	e := mpsim.MustNew(16)
	g := mpsim.WorldGroup(16)
	pl, err := CompileIndex(e, g, 9, IndexOptions{Algorithm: IndexBruck, Radix: 2, Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v := pl.Check(); v != nil {
		t.Fatalf("pipelined plan fails Check: %v", v)
	}
	// A span that outgrows its neighbour no longer tiles the block: the
	// merged round moves bytes the receiver does not expect.
	merged := exchangeSteps(pl)
	merged[1].xfers[1].send[0].len++
	if v := pl.Check(); len(v) == 0 {
		t.Error("Check accepted a corrupted span")
	}
	// Two segments in flight towards one partner break the k-port
	// distinctness the offset-gap clamp guarantees.
	pl, err = CompileIndex(e, g, 9, IndexOptions{Algorithm: IndexBruck, Radix: 2, Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	merged = exchangeSteps(pl)
	merged[1].xfers[1].to, merged[1].xfers[1].from = merged[1].xfers[0].to, merged[1].xfers[0].from
	if v := pl.Check(); !mentions(v, "duplicate") {
		t.Errorf("Check accepted two lanes to one partner: %v", v)
	}
}

// TestAutoSegmentsResolution: AutoSegments resolves through the cost
// model at compile time; an explicitly requested equal count compiles
// the same schedule shape.
func TestAutoSegmentsResolution(t *testing.T) {
	const n, k, b = 16, 1, 65536
	e := mpsim.MustNew(n, mpsim.Ports(k))
	g := mpsim.WorldGroup(n)
	auto, err := CompileIndex(e, g, b, IndexOptions{Algorithm: IndexBruck, Radix: 2, Segments: AutoSegments})
	if err != nil {
		t.Fatal(err)
	}
	want := OptimalSegments(costmodel.SP1, n, b, 2, k)
	got := auto.Segments()
	if got == 0 {
		got = 1
	}
	if got != want {
		t.Errorf("AutoSegments compiled %d segments, OptimalSegments says %d", got, want)
	}
	if s := OptimalSegments(costmodel.SP1, n, 1, 2, k); s != 1 {
		t.Errorf("OptimalSegments(b=1) = %d, want monolithic", s)
	}
}

// FuzzSegmentBoundaries: arbitrary (n, blockLen, segments) must compile
// to a plan whose execution is still the exact transpose — in
// particular blockLen % segments != 0, segments > blockLen, segments
// greater than the round count, and segments = 1.
func FuzzSegmentBoundaries(f *testing.F) {
	f.Add(8, 9, 4)
	f.Add(16, 7, 7)
	f.Add(5, 3, 100)
	f.Add(4, 1, 2)
	f.Add(9, 16, 1)
	f.Fuzz(func(t *testing.T, n, blockLen, s int) {
		if n < 1 || n > 12 || blockLen < 0 || blockLen > 64 || s < -1 || s > 256 {
			t.Skip()
		}
		e := mpsim.MustNew(n)
		g := mpsim.WorldGroup(n)
		opt := IndexOptions{Algorithm: IndexBruck, Radix: 2, Segments: s}
		pl, err := CompileIndex(e, g, blockLen, opt)
		if err != nil {
			t.Fatalf("CompileIndex(n=%d b=%d s=%d): %v", n, blockLen, s, err)
		}
		if v := pl.Check(); v != nil {
			t.Fatalf("n=%d b=%d s=%d: Check: %v", n, blockLen, s, v)
		}
		in := genIndexInput(n, blockLen)
		out, _, err := indexSlices(e, g, in, opt)
		if err != nil {
			t.Fatalf("Index(n=%d b=%d s=%d): %v", n, blockLen, s, err)
		}
		checkTranspose(t, in, out, fmt.Sprintf("fuzz n=%d b=%d s=%d", n, blockLen, s))
	})
}
