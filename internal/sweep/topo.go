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
	"slices"

	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
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

// TopoCrossoverTable compiles the flat and hierarchical schedules of
// one operation ("index" or "concat") over every (n, b, ratio)
// combination on k ports: groups are BalancedGroups(n), intra links
// run at the given profile and inter links at profile*ratio. The flat
// arm of the index is the best Bruck radix under the topology clock;
// the concatenation's flat arm is the circulant schedule.
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
		g := mpsim.WorldGroup(n)
		groups := BalancedGroups(n)
		for _, ratio := range ratios {
			topo, err := costmodel.NewTopology(groups, intra, costmodel.Scaled(intra, ratio))
			if err != nil {
				return nil, err
			}
			for _, b := range sizes {
				row := TopoRow{Op: op, N: n, K: k, B: b, Shape: topo.Spec(), Ratio: ratio}
				spec := named
				spec.BlockLen = b
				// The flat arm: the concatenation's is the circulant schedule,
				// the index's the best Bruck radix under the topology clock.
				arms := []int{0}
				if spec.Op == collective.OpIndex {
					arms = RadixArms(n, k)
				}
				var flat *collective.Plan
				for _, r := range arms {
					spec.Index.Radix = r
					pl, err := collective.Compile(e, g, spec)
					if err != nil {
						return nil, err
					}
					if flat == nil || pl.TimeTopo(topo) < flat.TimeTopo(topo) {
						flat, row.FlatR = pl, r
					}
				}
				spec.Index.Radix, spec.Hierarchical, spec.Topology = 0, true, topo
				hier, err := collective.Compile(e, g, spec)
				if err != nil {
					return nil, err
				}
				row.FlatC1, row.FlatC2 = flat.Rounds(), flat.PredictedC2()
				row.HierC1, row.HierC2 = hier.Rounds(), hier.PredictedC2()
				row.FlatSec, row.HierSec = flat.TimeTopo(topo), hier.TimeTopo(topo)
				row.HierWins = row.HierSec < row.FlatSec
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RadixArms is the flat index arm's radix candidate set: the powers of
// two, the round-minimal k+1 and the volume-minimal n.
func RadixArms(n, k int) []int {
	var out []int
	for _, r := range append(PowersOfTwoUpTo(n), k+1, n) {
		if r = intmath.Min(intmath.Max(r, 2), n); !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
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
