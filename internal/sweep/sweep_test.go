package sweep

import (
	"strings"
	"testing"

	"bruck/internal/collective"
	"bruck/internal/costmodel"
)

// TestFig4Shape: with SP-1 parameters and n = 64, the smallest radix is
// fastest at small message sizes and the largest radix is fastest at
// large message sizes — the qualitative content of Figure 4.
func TestFig4Shape(t *testing.T) {
	h := NewHarness(costmodel.SP1)
	sizes := []int{2, 16, 64, 256, 1024, 4096}
	series, err := h.Fig4(64, PowersOfTwoUpTo(64), sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 { // radices 2, 4, 8, 16, 32, 64
		t.Fatalf("got %d series, want 6", len(series))
	}
	best := BestRadixPerSize(series)
	if best[0] != 2 {
		t.Errorf("at 2 bytes the best radix is %d, want 2", best[0])
	}
	if best[len(best)-1] != 64 {
		t.Errorf("at 4096 bytes the best radix is %d, want 64", best[len(best)-1])
	}
	// Monotone drift: the best radix never decreases as b grows.
	for i := 1; i < len(best); i++ {
		if best[i] < best[i-1] {
			t.Errorf("best radix decreased from %d to %d between %d and %d bytes",
				best[i-1], best[i], sizes[i-1], sizes[i])
		}
	}
}

// TestFig5Crossover: the r=2 versus r=n=64 break-even point falls at
// 100-200 bytes under the SP-1 profile, as the paper reports.
func TestFig5Crossover(t *testing.T) {
	h := NewHarness(costmodel.SP1)
	sizes := make([]int, 0, 512)
	for b := 1; b <= 512; b++ {
		sizes = append(sizes, b)
	}
	series, err := h.Fig5(64, sizes)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := Crossover(series[0], series[1])
	if err != nil {
		t.Fatal(err)
	}
	if cross < 100 || cross > 200 {
		t.Errorf("crossover at %d bytes, paper reports 100-200", cross)
	}
	// The tuned-radix curve is never worse than either special case.
	for i := range sizes {
		tuned := series[2].Points[i].Seconds
		if tuned > series[0].Points[i].Seconds+1e-15 || tuned > series[1].Points[i].Seconds+1e-15 {
			t.Fatalf("at %d bytes the tuned radix (%.3gs) is worse than a special case", sizes[i], tuned)
		}
	}
}

// TestFig6Shape: the minimum of the time-versus-radix curve moves to
// larger radices as the message grows (32, 64, 128 bytes as in the
// paper).
func TestFig6Shape(t *testing.T) {
	h := NewHarness(costmodel.SP1)
	radices := make([]int, 0, 63)
	for r := 2; r <= 64; r++ {
		radices = append(radices, r)
	}
	series, err := h.Fig6(64, []int{32, 64, 128}, radices)
	if err != nil {
		t.Fatal(err)
	}
	argmin := func(s Series) int {
		best := 0
		for i := range s.Points {
			if s.Points[i].Seconds < s.Points[best].Seconds {
				best = i
			}
		}
		return s.Points[best].R
	}
	m32, m64, m128 := argmin(series[0]), argmin(series[1]), argmin(series[2])
	if !(m32 <= m64 && m64 <= m128) {
		t.Errorf("minima at radices %d, %d, %d for 32, 64, 128 bytes; want non-decreasing", m32, m64, m128)
	}
	if m32 == m128 {
		t.Errorf("minimum did not move between 32 and 128 bytes (both %d)", m32)
	}
}

// TestScheduleMatchesClosedForm: the harness's measured schedules equal
// the closed forms of package collective.
func TestScheduleMatchesClosedForm(t *testing.T) {
	h := NewHarness(costmodel.SP1)
	for _, tc := range []struct{ n, r, k int }{{8, 2, 1}, {64, 8, 1}, {9, 3, 2}, {16, 4, 3}} {
		pt, err := h.point(tc.n, tc.r, tc.k, 7)
		if err != nil {
			t.Fatal(err)
		}
		wantC1, wantC2 := collective.IndexCost(tc.n, 7, tc.r, tc.k)
		if pt.C1 != wantC1 || pt.C2 != wantC2 {
			t.Errorf("n=%d r=%d k=%d: point (%d, %d), closed form (%d, %d)",
				tc.n, tc.r, tc.k, pt.C1, pt.C2, wantC1, wantC2)
		}
	}
}

// TestScheduleCache: the second request for the same configuration
// answers from the cache, with the same measures.
func TestScheduleCache(t *testing.T) {
	h := NewHarness(costmodel.SP1)
	c1, blocks, err := h.schedule(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.cache[[3]int{8, 2, 1}] = [2]int{c1, blocks + 1} // a recompile would not see this
	if again, got, err := h.schedule(8, 2, 1); err != nil || again != c1 || got != blocks+1 {
		t.Errorf("schedule = (%d, %d, %v), want the cached (%d, %d)", again, got, err, c1, blocks+1)
	}
}

func TestConcatBoundsTableOptimal(t *testing.T) {
	rows, err := ConcatBoundsTable([]int{4, 5, 8, 9, 16, 17, 27, 32}, []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty table")
	}
	for _, r := range rows {
		if !r.C1Optimal || !r.C2Optimal {
			t.Errorf("concat n=%d k=%d b=%d not optimal: C1 %d/%d, C2 %d/%d",
				r.N, r.K, r.B, r.C1, r.C1LB, r.C2, r.C2LB)
		}
	}
}

func TestIndexBoundsTable(t *testing.T) {
	rows, err := IndexBoundsTable([]int{8, 9, 16}, []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.C1 < r.C1LB || r.C2 < r.C2LB {
			t.Errorf("%s n=%d k=%d beats a lower bound: %+v", r.Op, r.N, r.K, r)
		}
		// The round-minimal radix must be C1-optimal; the
		// volume-minimal radix (r=n) must be C2-optimal at k=1.
		if strings.HasPrefix(r.Op, "index r=") && r.K == 1 {
			if strings.HasSuffix(r.Op, "r=2") && !r.C1Optimal {
				t.Errorf("r=2 not C1-optimal: %+v", r)
			}
		}
	}
}

// TestReports: the studies' tables carry one column per series (or
// measure) and one row per point, in every shape the CLI renders.
func TestReports(t *testing.T) {
	h := NewHarness(costmodel.SP1)
	series, err := h.Fig4(8, []int{2, 8}, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	tb := SeriesReport("fig4", series, "bytes")
	if got := strings.Join(tb.Columns, ","); got != "bytes,r=2,r=8" || len(tb.Rows) != 2 || tb.Rows[1][0] != "64" {
		t.Errorf("SeriesReport by bytes: columns %q, rows %v", got, tb.Rows)
	}
	fig6, err := h.Fig6(8, []int{32}, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	tb = SeriesReport("fig6", fig6, "radix")
	if got := strings.Join(tb.Columns, ","); got != "radix,32 bytes" || len(tb.Rows) != 3 || tb.Rows[2][0] != "8" {
		t.Errorf("SeriesReport by radix: columns %q, rows %v", got, tb.Rows)
	}
	rows, err := ConcatBoundsTable([]int{8, 4}, []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tb = BoundsReport("concat-bounds", rows)
	if len(tb.Rows) != 2 || tb.Rows[0][0] != "concat" || tb.Rows[0][1] != "4" || tb.Columns[5] != "c1_lb" {
		t.Errorf("BoundsReport: columns %v, rows %v", tb.Columns, tb.Rows)
	}
	if tb = SeriesReport("none", nil, "bytes"); len(tb.Columns) != 1 || len(tb.Rows) != 0 {
		t.Errorf("SeriesReport of no series: %+v", tb)
	}
}

func TestCrossoverNone(t *testing.T) {
	a := Series{Points: []Point{{BlockLen: 1, Seconds: 1}, {BlockLen: 2, Seconds: 1}}}
	b := Series{Points: []Point{{BlockLen: 1, Seconds: 2}, {BlockLen: 2, Seconds: 2}}}
	if got, err := Crossover(a, b); err != nil || got != -1 {
		t.Errorf("Crossover = %d (err %v), want -1", got, err)
	}
	if got, err := Crossover(b, a); err != nil || got != 1 {
		t.Errorf("Crossover = %d (err %v), want 1", got, err)
	}
}

// TestCrossoverRaggedAndEmpty: unequal-length or empty series report an
// error instead of silently returning -1 — the crossover could lie in
// the untracked tail of the longer series.
func TestCrossoverRaggedAndEmpty(t *testing.T) {
	short := Series{Name: "short", Points: []Point{{BlockLen: 1, Seconds: 1}}}
	long := Series{Name: "long", Points: []Point{
		{BlockLen: 1, Seconds: 2}, {BlockLen: 2, Seconds: 0.5},
	}}
	empty := Series{Name: "empty"}
	if _, err := Crossover(short, long); err == nil {
		t.Error("Crossover accepted ragged series (crossover hidden in the tail)")
	}
	if _, err := Crossover(long, short); err == nil {
		t.Error("Crossover accepted ragged series")
	}
	if _, err := Crossover(empty, long); err == nil {
		t.Error("Crossover accepted an empty series")
	}
	if _, err := Crossover(long, empty); err == nil {
		t.Error("Crossover accepted an empty series")
	}
}

// TestBestRadixPerSizeRagged: ragged series contribute only at the
// positions they cover, and fully empty input yields nil.
func TestBestRadixPerSizeRagged(t *testing.T) {
	series := []Series{
		{Name: "r=2", Points: []Point{{R: 2, Seconds: 1.0}, {R: 2, Seconds: 1.0}}},
		{Name: "r=4", Points: []Point{{R: 4, Seconds: 2.0}, {R: 4, Seconds: 0.5}, {R: 4, Seconds: 3.0}}},
	}
	got := BestRadixPerSize(series)
	want := []int{2, 4, 4} // position 2 only covered by r=4
	if len(got) != len(want) {
		t.Fatalf("BestRadixPerSize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BestRadixPerSize = %v, want %v", got, want)
		}
	}
	if out := BestRadixPerSize(nil); out != nil {
		t.Errorf("BestRadixPerSize(nil) = %v, want nil", out)
	}
	if out := BestRadixPerSize([]Series{{Name: "empty"}}); out != nil {
		t.Errorf("BestRadixPerSize(empty series) = %v, want nil", out)
	}
}

// TestSegmentedPointMatchesClosedForm: the harness's pipelined point,
// built from measured unit schedules, must agree exactly with the
// closed-form collective.SegmentedIndexCost at every clamp edge —
// degenerate s, s past the block size, s past the round count — so the
// crossover study predicts precisely what the plan compiler builds.
func TestSegmentedPointMatchesClosedForm(t *testing.T) {
	h := NewHarness(costmodel.SP1)
	for _, tc := range []struct{ n, r, k int }{{8, 2, 1}, {12, 2, 1}, {9, 3, 2}, {16, 4, 3}} {
		for _, b := range []int{1, 2, 7, 64, 4096} {
			for _, s := range []int{1, 2, 4, 7, 100} {
				pt, err := h.SegmentedPoint(tc.n, tc.r, tc.k, b, s)
				if err != nil {
					t.Fatalf("n=%d r=%d k=%d b=%d s=%d: %v", tc.n, tc.r, tc.k, b, s, err)
				}
				c1, c2 := collective.SegmentedIndexCost(tc.n, b, tc.r, tc.k, s)
				if pt.C1 != c1 || pt.C2 != c2 {
					t.Errorf("n=%d r=%d k=%d b=%d s=%d: SegmentedPoint (C1=%d, C2=%d), closed form (%d, %d)",
						tc.n, tc.r, tc.k, b, s, pt.C1, pt.C2, c1, c2)
				}
				if want := h.Profile.Time(c1, c2); pt.Seconds != want {
					t.Errorf("n=%d r=%d k=%d b=%d s=%d: Seconds = %g, want %g",
						tc.n, tc.r, tc.k, b, s, pt.Seconds, want)
				}
			}
		}
	}
}
