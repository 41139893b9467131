package collective

// Tests for segment-pipelined plans: byte-equivalence of the pipelined
// executor with the monolithic one over the (n, k, r, segments) grid,
// plain and under chaos, the compiler's clamping rules, the closed-form cost
// agreement (SegmentedIndexCost must equal the compiled measures
// exactly) and static Check acceptance. The segment boundaries are
// FuzzCase seeds (package golden).

import (
	"bytes"
	"fmt"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// runSegmentedIndex executes one segmented index configuration on e
// and verifies the transpose; it returns the result and
// the compiled plan.
func runSegmentedIndex(t *testing.T, e *mpsim.Engine, n, blockLen, r, s int) (*Result, [][][]byte, *Plan) {
	t.Helper()
	g := mpsim.WorldGroup(n)
	spec := Spec{Op: OpIndex, BlockLen: blockLen, Index: IndexOptions{Algorithm: IndexBruck, Radix: r}, Segments: s}
	pl, err := Compile(e, g, spec)
	if err != nil {
		t.Fatalf("Compile(n=%d b=%d r=%d s=%d): %v", n, blockLen, r, s, err)
	}
	in := genIndexInput(n, blockLen)
	fin, err := buffers.FromMatrix(in)
	out, res, err := runSlices(e, g, fin, err, spec)
	if err != nil {
		t.Fatalf("Index(n=%d b=%d r=%d s=%d): %v", n, blockLen, r, s, err)
	}
	checkTranspose(t, in, out, fmt.Sprintf("n=%d b=%d r=%d s=%d", n, blockLen, r, s))
	return res, out, pl
}

// TestPipelinedIndexEquivalenceGrid: for every (n, k, segments) cell of
// the grid, the pipelined execution must
// produce byte-identical output to the monolithic one (both are the
// transpose, so equivalence reduces to both passing checkTranspose) and
// the Report must match the compiled pipelined measures.
func TestPipelinedIndexEquivalenceGrid(t *testing.T) {
	const blockLen = 9 // 9 % {2, 4, 7} != 0: uneven spans on every cell
	for n := 1; n <= 16; n++ {
		kmax := 3
		if kmax > n-1 {
			kmax = n - 1
		}
		if kmax < 1 {
			kmax = 1
		}
		for k := 1; k <= kmax; k++ {
			e := mpsim.MustNew(n, mpsim.Ports(k))
			for _, s := range []int{1, 2, 4, 7} {
				res, _, pl := runSegmentedIndex(t, e, n, blockLen, 2, s)
				if res.C1 != pl.c1 || res.C2 != pl.res.C2 {
					t.Errorf("n=%d k=%d s=%d: report (%d, %d), plan predicts (%d, %d)",
						n, k, s, res.C1, res.C2, pl.c1, pl.res.C2)
				}
				if pl.segments > 1 {
					mono, _ := IndexCost(n, blockLen, 2, k)
					if want := costmodel.PipelinedC1(mono, pl.segments); res.C1 != want {
						t.Errorf("n=%d k=%d s=%d: c1=%d, want pipelined %d", n, k, s, res.C1, want)
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
	for _, tc := range []struct{ n, k, s int }{{8, 1, 4}, {16, 2, 4}, {7, 1, 2}, {12, 3, 7}} {
		e := mpsim.MustNew(tc.n, mpsim.Ports(tc.k),
			mpsim.WithChaos(mpsim.ChaosConfig{Seed: 42, Stragglers: []int{0, tc.n / 2}}))
		runSegmentedIndex(t, e, tc.n, 9, 2, tc.s)
	}
}

// TestPipelinedReduceEquivalence: segmented ReduceBruck reduce-scatter
// and allreduce produce bit-identical bytes to their monolithic
// counterparts (the combine order is unchanged: all spans arrive before
// the fold), across segment counts.
func TestPipelinedReduceEquivalence(t *testing.T) {
	const blockLen = 12 // 3 int32 elements
	kern, err := buffers.Kernel(buffers.Sum, buffers.Int32)
	if err != nil {
		t.Fatalf("buffers.Kernel: %v", err)
	}
	for _, tc := range []struct{ n, k int }{{4, 1}, {7, 1}, {8, 2}, {16, 1}, {16, 3}} {
		e := mpsim.MustNew(tc.n, mpsim.Ports(tc.k))
		g := mpsim.WorldGroup(tc.n)
		var base []byte
		for _, s := range []int{0, 2, 4, 7} {
			opt := ReduceOptions{Algorithm: ReduceBruck, Radix: 2, Kernel: kern,
				ElemSize: 4, KernelKey: "sum/int32"}
			in, _ := buffers.FromMatrix(genIndexInput(tc.n, blockLen))
			out, _ := buffers.New(tc.n, tc.n, blockLen)
			if _, err := runFlat(e, g, in, out, Spec{Op: OpAllReduce, Reduce: opt, Segments: s}); err != nil {
				t.Fatalf("n=%d k=%d s=%d: %v", tc.n, tc.k, s, err)
			}
			if base == nil {
				base = append([]byte(nil), out.Bytes()...)
			} else if !bytes.Equal(base, out.Bytes()) {
				t.Errorf("n=%d k=%d s=%d: allreduce bytes differ from monolithic", tc.n, tc.k, s)
			}
		}
	}
}

// TestFinishSegmentsClamps pins the segment clamps of canonicalize and
// the pipeline pass: the configurations that cannot pipeline —
// baselines, noPack, single-round schedules, blocks too small to split
// — compile monolithic, and a segment request past the block size or
// the round count clamps to it.
func TestFinishSegmentsClamps(t *testing.T) {
	e := mpsim.MustNew(8)
	g := mpsim.WorldGroup(8)
	compile := func(blockLen int, s Spec) *Plan {
		t.Helper()
		s.Op, s.BlockLen = OpIndex, blockLen
		pl, err := Compile(e, g, s)
		if err != nil {
			t.Fatalf("Compile(b=%d, %+v): %v", blockLen, s, err)
		}
		return pl
	}
	for _, tc := range []struct {
		name string
		bl   int
		spec Spec
		want int
	}{
		{"plain", 8, Spec{Index: IndexOptions{Radix: 2}, Segments: 3}, 3},
		{"monolithic-0", 8, Spec{Index: IndexOptions{Radix: 2}}, 0},
		{"monolithic-1", 8, Spec{Index: IndexOptions{Radix: 2}, Segments: 1}, 0},
		{"direct", 8, Spec{Index: IndexOptions{Algorithm: IndexDirect}, Segments: 4}, 0},
		{"nopack", 8, Spec{Index: IndexOptions{Radix: 2, NoPack: true}, Segments: 4}, 0},
		{"tiny-block", 1, Spec{Index: IndexOptions{Radix: 2}, Segments: 4}, 0},
		{"clamp-to-block", 2, Spec{Index: IndexOptions{Radix: 2}, Segments: 7}, 2},
		{"clamp-to-rounds", 64, Spec{Index: IndexOptions{Radix: 2}, Segments: 64}, 3},
	} {
		if got := compile(tc.bl, tc.spec).Segments(); got != tc.want {
			t.Errorf("%s: Segments() = %d, want %d", tc.name, got, tc.want)
		}
	}

	// A single-round schedule (n = 2: one offset) cannot pipeline.
	e2 := mpsim.MustNew(2)
	pl, err := Compile(e2, mpsim.WorldGroup(2), Spec{Op: OpIndex, BlockLen: 8, Index: IndexOptions{Radix: 2}, Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Segments(); got != 0 {
		t.Errorf("single-round: Segments() = %d, want 0", got)
	}
}

// TestPipelineLeavesMonolithic: where the clamped segment count is 1
// or under — no request, one segment, a one-byte block, a one-round
// schedule, a program with a role per rank — the pass returns its
// program as it is and allocates nothing, so a monolithic compile costs
// what it did before the pass existed.
func TestPipelineLeavesMonolithic(t *testing.T) {
	two := func(int) int { return 2 }
	for _, tc := range []struct {
		name string
		pr   *program
		s    int
	}{
		{"s=0", bruckProgram(8, 1, 8, two, false, false, false), 0},
		{"s=1", bruckProgram(8, 1, 8, two, false, false, false), 1},
		{"one-byte block", bruckProgram(8, 1, 1, two, false, false, false), 4},
		{"one round", bruckProgram(2, 1, 8, two, false, false, false), 4},
		{"role per rank", &program{n: 2, bl: 8, roles: make([]role, 2)}, 4},
	} {
		var got *program
		var segments int
		allocs := testing.AllocsPerRun(10, func() { got, segments = pipeline(tc.pr, tc.s) })
		if got != tc.pr || segments != 0 || allocs != 0 {
			t.Errorf("%s: pipeline returned a new program %v, %d segments, %v allocs; want the input, 0, 0",
				tc.name, got != tc.pr, segments, allocs)
		}
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
						pl, err := Compile(e, g, Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Algorithm: IndexBruck, Radix: r}, Segments: s})
						if err != nil {
							t.Fatal(err)
						}
						c1, c2 := SegmentedIndexCost(n, b, r, k, s)
						if pl.c1 != c1 || pl.res.C2 != c2 {
							t.Errorf("n=%d r=%d k=%d b=%d s=%d: plan (%d, %d), SegmentedIndexCost (%d, %d)",
								n, r, k, b, s, pl.c1, pl.res.C2, c1, c2)
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
	pl, err := Compile(e, g, Spec{Op: OpIndex, BlockLen: 9, Index: IndexOptions{Algorithm: IndexBruck, Radix: 2}, Segments: 4})
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
	pl, err = Compile(e, g, Spec{Op: OpIndex, BlockLen: 9, Index: IndexOptions{Algorithm: IndexBruck, Radix: 2}, Segments: 4})
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
	auto, err := Compile(e, g, Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Algorithm: IndexBruck, Radix: 2}, Segments: AutoSegments})
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

// TestOptimalSegmentsAllocs pins OptimalSegments' cost — one schedule
// per call, the span lengths computed — and its answers to the search it
// replaced, which built a schedule and a SplitSpans slice per candidate.
func TestOptimalSegmentsAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { OptimalSegments(costmodel.SP1, 16, 64<<10, 2, 1) }); a > 2 {
		t.Errorf("OptimalSegments allocates %v times a call, want at most 2", a)
	}
	before := func(n, b, r, k int) int {
		best, bestTime := 1, 0.0
		for _, s := range []int{1, 2, 4, 8, 16} {
			sched := IndexSchedule(n, r, k)
			c1, c2 := IndexCost(n, b, r, k)
			if s := min(s, b, len(sched)); s > 1 {
				spans := buffers.SplitSpans(b, s)
				c1, c2 = costmodel.PipelinedC1(len(sched), s), 0
				for t := 0; t < c1; t++ {
					most := 0
					for seg := max(0, t-len(sched)+1); seg <= min(t, s-1); seg++ {
						most = max(most, sched[t-seg]*spans[seg].Len)
					}
					c2 += most
				}
			}
			if tm := costmodel.SP1.Time(c1, c2); s == 1 || tm < bestTime {
				best, bestTime = s, tm
			}
		}
		return best
	}
	for n := 2; n <= 64; n++ {
		for _, b := range []int{1, 7, 4096, 65536} {
			for _, r := range []int{2, 4, n} {
				for k := 1; k <= 3; k++ {
					if got, want := OptimalSegments(costmodel.SP1, n, b, r, k), before(n, b, r, k); got != want {
						t.Errorf("n=%d b=%d r=%d k=%d: %d segments, the per-candidate search says %d", n, b, r, k, got, want)
					}
				}
			}
		}
	}
}
