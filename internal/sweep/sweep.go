// Package sweep is the experiment harness that regenerates the paper's
// evaluation artifacts: the measured-time figures of Section 3.5
// (Figures 4, 5 and 6) and the optimality tables of Sections 2 and 4.
//
// Schedule measures are read from the compiled plan (Plan.Rounds,
// Plan.PredictedC2): the oracle, collective.Exercise, asserts measured =
// compiled wherever a schedule runs, so nothing here executes one to
// count. Both measures scale linearly in the block size b, so times for
// any b follow from the unit-block plan under the linear model
// T = C1*beta + C2*tau. The studies return their results as cli tables
// (tables.go); rendering is the CLI's.
package sweep

import (
	"fmt"
	"math"
	"sort"

	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
)

// Point is one configuration of a series: the index algorithm with
// radix R on N processors with K ports and block size BlockLen, its
// schedule measures, and its linear-model time.
type Point struct {
	N, K, R  int
	BlockLen int
	C1       int
	C2       int // bytes
	Seconds  float64
}

// Series is a named curve, e.g. "r=8" in Figure 4.
type Series struct {
	Name   string
	Points []Point
}

// Harness evaluates index schedules under a machine profile and caches
// their unit-block measures.
type Harness struct {
	Profile costmodel.Profile

	cache map[[3]int][2]int // (n, r, k) -> C1 and C2 at 1-byte blocks
}

// NewHarness returns a harness evaluating times under the given machine
// profile.
func NewHarness(p costmodel.Profile) *Harness {
	return &Harness{Profile: p, cache: make(map[[3]int][2]int)}
}

// schedule returns the rounds and the volume, in blocks, of the radix-r
// index algorithm: those of its plan compiled for 1-byte blocks.
func (h *Harness) schedule(n, r, k int) (c1, blocks int, err error) {
	key := [3]int{n, r, k}
	if c, ok := h.cache[key]; ok {
		return c[0], c[1], nil
	}
	pl, err := compile(n, k, collective.Spec{Op: collective.OpIndex, BlockLen: 1, Index: collective.IndexOptions{Radix: r}})
	if err != nil {
		return 0, 0, fmt.Errorf("sweep: compiling n=%d r=%d k=%d: %w", n, r, k, err)
	}
	c1, blocks = pl.Rounds(), pl.PredictedC2()
	h.cache[key] = [2]int{c1, blocks}
	return c1, blocks, nil
}

// compile builds the spec's plan for all n processors of a k-port
// engine.
func compile(n, k int, s collective.Spec) (*collective.Plan, error) {
	e, err := mpsim.New(n, mpsim.Ports(k))
	if err != nil {
		return nil, err
	}
	return collective.Compile(e, mpsim.WorldGroup(n), s)
}

// at is the point of one configuration at block size b given its
// schedule measures.
func (h *Harness) at(n, r, k, b, c1, c2 int) Point {
	return Point{N: n, K: k, R: r, BlockLen: b, C1: c1, C2: c2, Seconds: h.Profile.Time(c1, c2)}
}

// point evaluates one configuration at block size b.
func (h *Harness) point(n, r, k, b int) (Point, error) {
	c1, blocks, err := h.schedule(n, r, k)
	if err != nil {
		return Point{}, err
	}
	return h.at(n, r, k, b, c1, blocks*b), nil
}

// SegmentedPoint evaluates one segment-pipelined configuration at block
// size b split into s spans: the round count and predicted volume of
// the plan the compiler builds for it, which clamps s and degenerates
// to the monolithic schedule as collective.SegmentedIndexCost does.
func (h *Harness) SegmentedPoint(n, r, k, b, s int) (Point, error) {
	pl, err := compile(n, k, collective.Spec{Op: collective.OpIndex, BlockLen: b,
		Index: collective.IndexOptions{Radix: r, Segments: s}})
	if err != nil {
		return Point{}, fmt.Errorf("sweep: compiling n=%d r=%d k=%d b=%d s=%d: %w", n, r, k, b, s, err)
	}
	return h.at(n, r, k, b, pl.Rounds(), pl.PredictedC2()), nil
}

// Fig4 regenerates Figure 4: the index algorithm's time as a function
// of message size for each radix, n processors, k = 1.
func (h *Harness) Fig4(n int, radices, sizes []int) ([]Series, error) {
	out := make([]Series, 0, len(radices))
	for _, r := range radices {
		s := Series{Name: fmt.Sprintf("r=%d", r)}
		for _, b := range sizes {
			pt, err := h.point(n, r, 1, b)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, pt)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5 regenerates Figure 5: r = 2, r = n, and the best power-of-two
// radix, as functions of message size, n processors, k = 1.
func (h *Harness) Fig5(n int, sizes []int) ([]Series, error) {
	series := []Series{
		{Name: "r=2"},
		{Name: fmt.Sprintf("r=n=%d", n)},
		{Name: "optimal power-of-two r"},
	}
	for _, b := range sizes {
		p2, err := h.point(n, 2, 1, b)
		if err != nil {
			return nil, err
		}
		pn, err := h.point(n, n, 1, b)
		if err != nil {
			return nil, err
		}
		best := p2
		for r := 2; r <= n; r *= 2 {
			pt, err := h.point(n, r, 1, b)
			if err != nil {
				return nil, err
			}
			if pt.Seconds < best.Seconds {
				best = pt
			}
		}
		if pn.Seconds < best.Seconds {
			best = pn
		}
		series[0].Points = append(series[0].Points, p2)
		series[1].Points = append(series[1].Points, pn)
		series[2].Points = append(series[2].Points, best)
	}
	return series, nil
}

// Fig6 regenerates Figure 6: time as a function of radix for several
// message sizes, n processors, k = 1.
func (h *Harness) Fig6(n int, sizes, radices []int) ([]Series, error) {
	out := make([]Series, 0, len(sizes))
	for _, b := range sizes {
		s := Series{Name: fmt.Sprintf("%d bytes", b)}
		for _, r := range radices {
			pt, err := h.point(n, r, 1, b)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, pt)
		}
		out = append(out, s)
	}
	return out, nil
}

// Crossover returns the smallest block size at which series b is at
// least as fast as series a, or -1 if b never catches a. The series
// must be aligned — non-empty, with one point per block size in the
// same order — and Crossover reports an error otherwise: a silent -1
// on ragged input used to hide crossovers lying in the untracked tail
// of the longer series.
func Crossover(a, b Series) (int, error) {
	if len(a.Points) == 0 || len(b.Points) == 0 {
		return -1, fmt.Errorf("sweep: crossover of empty series (%q has %d points, %q has %d)",
			a.Name, len(a.Points), b.Name, len(b.Points))
	}
	if len(a.Points) != len(b.Points) {
		return -1, fmt.Errorf("sweep: crossover of ragged series: %q has %d points, %q has %d",
			a.Name, len(a.Points), b.Name, len(b.Points))
	}
	for i := range a.Points {
		if b.Points[i].Seconds <= a.Points[i].Seconds {
			return a.Points[i].BlockLen, nil
		}
	}
	return -1, nil
}

// BestRadixPerSize returns, for each point position, the radix whose
// series has the lowest time there. Ragged series are handled by
// considering, at each position, only the series that have a point
// there; positions beyond every series are absent from the result. The
// result is nil when no series has any points.
func BestRadixPerSize(series []Series) []int {
	maxLen := 0
	for _, s := range series {
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]int, maxLen)
	for i := range out {
		bestR := 0
		bestSec := math.Inf(1)
		for _, s := range series {
			if i < len(s.Points) && s.Points[i].Seconds < bestSec {
				bestSec = s.Points[i].Seconds
				bestR = s.Points[i].R
			}
		}
		out[i] = bestR
	}
	return out
}

// PowersOfTwoUpTo returns 2, 4, ..., up to and including n if n is a
// power of two (otherwise the largest power below n).
func PowersOfTwoUpTo(n int) []int {
	var out []int
	for r := 2; r <= n; r *= 2 {
		out = append(out, r)
	}
	return out
}

// BoundsRow compares one configuration's achieved measures with the
// Section 2 lower bounds.
type BoundsRow struct {
	Op         string // "index" or "concat"
	N, K, B    int
	C1, C2     int
	C1LB, C2LB int
	C1Optimal  bool
	C2Optimal  bool
}

// ConcatBoundsTable compiles the circulant concatenation across the
// given n and k values at block size b and reports achieved-vs-bound.
func ConcatBoundsTable(ns, ks []int, b int) ([]BoundsRow, error) {
	var rows []BoundsRow
	for _, n := range ns {
		for _, k := range ks {
			if k > intmath.Max(1, n-1) {
				continue
			}
			pl, err := compile(n, k, collective.Spec{Op: collective.OpConcat, BlockLen: b})
			if err != nil {
				return nil, fmt.Errorf("sweep: concat n=%d k=%d: %w", n, k, err)
			}
			row := BoundsRow{
				Op: "concat", N: n, K: k, B: b,
				C1: pl.Rounds(), C2: pl.PredictedC2(),
				C1LB: lowerbound.ConcatRounds(n, k),
				C2LB: lowerbound.ConcatVolume(n, b, k),
			}
			row.C1Optimal = row.C1 == row.C1LB
			row.C2Optimal = row.C2 == row.C2LB
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// IndexBoundsTable compiles the Bruck index with round-minimal radix
// (k+1) and volume-minimal radix (n) across configurations.
func IndexBoundsTable(ns, ks []int, b int) ([]BoundsRow, error) {
	var rows []BoundsRow
	h := NewHarness(costmodel.SP1)
	for _, n := range ns {
		for _, k := range ks {
			if k > intmath.Max(1, n-1) || n < 2 {
				continue
			}
			for _, r := range []int{intmath.Min(k+1, n), n} {
				pt, err := h.point(n, r, k, b)
				if err != nil {
					return nil, err
				}
				row := BoundsRow{
					Op: fmt.Sprintf("index r=%d", r), N: n, K: k, B: b,
					C1: pt.C1, C2: pt.C2,
					C1LB: lowerbound.IndexRounds(n, k),
					C2LB: lowerbound.IndexVolume(n, b, k),
				}
				row.C1Optimal = row.C1 == row.C1LB
				row.C2Optimal = row.C2 == row.C2LB
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// sortedBounds returns the rows in presentation order: by n, then k,
// stable.
func sortedBounds(rows []BoundsRow) []BoundsRow {
	sorted := append([]BoundsRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].N != sorted[j].N {
			return sorted[i].N < sorted[j].N
		}
		return sorted[i].K < sorted[j].K
	})
	return sorted
}
