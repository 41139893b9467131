package sweep

// Flat-vs-hierarchical crossover study: on a two-level machine a flat
// schedule pays the inter-group profile on every round, while the
// hierarchical composition buys cheap intra rounds at the price of
// more rounds total and fatter inter-phase bundles. The study compiles
// both arms across (n, b, inter/intra ratio) and tabulates the modeled
// times under the topology clock, locating where each shape wins:
// hierarchical dominates latency-bound configurations (small b, high
// ratio) and flat volume-optimal schedules take back the
// bandwidth-bound ones.

import (
	"fmt"

	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// TopoRow is one configuration of the flat-vs-hierarchical study.
type TopoRow struct {
	Op      string
	N, K, B int
	// Shape is the canonical group spec ("4x4", "5,5,2") and Ratio the
	// inter/intra cost multiplier of the topology.
	Shape string
	Ratio float64
	// FlatR is the radix of the winning flat arm (0 for radix-free
	// schedules such as the circulant concatenation).
	FlatR          int
	FlatC1, FlatC2 int
	HierC1, HierC2 int
	// FlatSec and HierSec are the modeled times under the topology
	// clock: the flat schedule at the inter profile on every round, the
	// hierarchical one phase by phase.
	FlatSec, HierSec float64
	HierWins         bool
}

// BalancedGroups splits n processors into near-square contiguous
// groups — floor(sqrt(n)) members each, with a smaller ragged tail —
// the canonical two-level shape of the study.
func BalancedGroups(n int) []int {
	if n <= 3 {
		return []int{n}
	}
	m := 1
	for (m+1)*(m+1) <= n {
		m++
	}
	var groups []int
	for rem := n; rem > 0; rem -= m {
		g := m
		if rem < m {
			g = rem
		}
		groups = append(groups, g)
	}
	return groups
}

// TopoCrossoverTable compiles the flat (FlatBest) and hierarchical
// schedules of one operation ("index" or "concat") over every (n, b,
// ratio) combination on k ports: groups are BalancedGroups(n), intra
// links run at the given profile and inter links at profile*ratio.
func TopoCrossoverTable(op string, ns, sizes []int, ratios []float64, k int, intra costmodel.Profile) ([]TopoRow, error) {
	named, err := collective.ParseSpec(op, "")
	if err != nil || (named.Op != collective.OpIndex && named.Op != collective.OpConcat) {
		return nil, fmt.Errorf("sweep: topology crossover supports index and concat, got %q", op)
	}
	var rows []TopoRow
	for _, n := range ns {
		if n < 2 || k > n-1 {
			continue
		}
		e, err := mpsim.New(n, mpsim.Ports(k))
		if err != nil {
			return nil, err
		}
		groups := BalancedGroups(n)
		for _, ratio := range ratios {
			topo, err := costmodel.NewTopology(groups, intra, costmodel.Scaled(intra, ratio))
			if err != nil {
				return nil, err
			}
			for _, b := range sizes {
				spec := named
				spec.BlockLen = b
				flat, r, err := FlatBest(e, spec, topo)
				if err != nil {
					return nil, err
				}
				spec.Hierarchical, spec.Topology = true, topo
				hier, err := collective.Compile(e, mpsim.WorldGroup(n), spec)
				if err != nil {
					return nil, err
				}
				row := TopoRow{Op: op, N: n, K: k, B: b, Shape: topo.Spec(), Ratio: ratio, FlatR: r,
					FlatC1: flat.Rounds(), FlatC2: flat.PredictedC2(), HierC1: hier.Rounds(), HierC2: hier.PredictedC2(),
					FlatSec: flat.TimeTopo(topo), HierSec: hier.TimeTopo(topo)}
				row.HierWins = row.HierSec < row.FlatSec
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FlatBest compiles the flat arms of s's operation on e's world group —
// the Bruck index at the powers of two, the round-minimal k+1 and the
// volume-minimal n; the allreduce's ring and Bruck; s itself otherwise —
// and returns the fastest under the topology clock with its radix
// (Spec.Index.Radix).
func FlatBest(e *mpsim.Engine, s collective.Spec, topo *costmodel.Topology) (best *collective.Plan, radix int, err error) {
	n, arms := e.N(), []collective.Spec{s}
	switch s.Op {
	case collective.OpIndex:
		arms = nil
		for _, r := range append(PowersOfTwoUpTo(n), e.Ports()+1, n) {
			s.Index.Radix = min(max(r, 2), n)
			arms = append(arms, s)
		}
	case collective.OpAllReduce:
		s.Reduce.Algorithm = collective.ReduceBruck
		arms = append(arms, s)
	}
	for _, arm := range arms {
		pl, err := collective.Compile(e, mpsim.WorldGroup(n), arm)
		if err != nil {
			return nil, 0, err
		}
		if best == nil || pl.TimeTopo(topo) < best.TimeTopo(topo) {
			best, radix = pl, arm.Index.Radix
		}
	}
	return best, radix, nil
}

// TopoCrossover summarizes one (n, ratio) pair of the study.
type TopoCrossover struct {
	N     int
	Ratio float64
	// FlatFromB is the smallest swept b where the flat arm is at least
	// as fast; -1 when hierarchical wins across the whole sweep; equal
	// to the smallest swept b when hierarchical never wins.
	FlatFromB int
}

// TopoCrossovers scans a TopoCrossoverTable result (grouped by n and
// ratio in sweep order) for each pair's crossover block size.
func TopoCrossovers(rows []TopoRow) []TopoCrossover {
	var out []TopoCrossover
	idx := map[[2]int]int{}
	key := func(r TopoRow) [2]int { return [2]int{r.N, int(r.Ratio * 1000)} }
	for _, r := range rows {
		if _, ok := idx[key(r)]; !ok {
			idx[key(r)] = len(out)
			out = append(out, TopoCrossover{N: r.N, Ratio: r.Ratio, FlatFromB: -1})
		}
		c := &out[idx[key(r)]]
		if !r.HierWins && c.FlatFromB < 0 {
			c.FlatFromB = r.B
		}
	}
	return out
}
