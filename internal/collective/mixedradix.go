package collective

import (
	"fmt"

	"bruck/internal/costmodel"
	"bruck/internal/intmath"
)

// Mixed-radix index: a generalization of the Section 3 algorithm in
// which each Phase 2 subphase may use a different radix. Block ids are
// decomposed in the mixed-radix system with digit weights
// w_0 = 1, w_{i+1} = w_i * r_i; subphase i rotates the blocks whose
// i-th digit is z by z*w_i positions. The uniform algorithm is the
// special case r_0 = r_1 = ... = r. The paper observes that "r can be
// fine-tuned according to the parameters of the underlying machines";
// a mixed vector strictly enlarges that tuning space (the model optimum
// for intermediate message sizes is often non-uniform), and
// OptimalRadixSchedule finds the model-optimal vector by dynamic
// programming.

// ValidateRadices checks a mixed-radix vector for n processors: every
// radix at least 2 and the product of all radices at least n (so the
// decomposition covers all block ids). Radices beyond the first whose
// weight reaches n are rejected as dead subphases.
func ValidateRadices(n int, radices []int) error {
	if n <= 1 {
		if len(radices) == 0 {
			return nil
		}
		return fmt.Errorf("collective: %d radices for n = %d (no subphases needed)", len(radices), n)
	}
	if len(radices) == 0 {
		return fmt.Errorf("collective: empty radix vector for n = %d", n)
	}
	weight := 1
	for i, r := range radices {
		if r < 2 {
			return fmt.Errorf("collective: radix[%d] = %d, want >= 2", i, r)
		}
		if weight >= n {
			return fmt.Errorf("collective: radix[%d] is dead weight (product of earlier radices already >= n)", i)
		}
		weight *= r
	}
	if weight < n {
		return fmt.Errorf("collective: radix product %d < n = %d does not cover all block ids", weight, n)
	}
	return nil
}

// IndexMixedSchedule returns the per-round largest message size, in
// blocks, of the mixed-radix index algorithm — the closed form the
// simulator-measured schedule must match. It panics when k < 1.
func IndexMixedSchedule(n int, radices []int, k int) []int {
	if k < 1 {
		panic(fmt.Sprintf("collective: IndexMixedSchedule(%d, %v, %d) out of domain: k < 1", n, radices, k))
	}
	if n <= 1 {
		return nil
	}
	var rounds []int
	weight := 1
	for _, r := range radices {
		if weight >= n {
			break
		}
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		for start := 1; start < h; start += k {
			rounds = append(rounds, roundBlocks(n, r, weight, start, k, h))
		}
		weight *= r
	}
	return rounds
}

// IndexMixedCost returns the closed-form (C1, C2) for block size b.
func IndexMixedCost(n, b int, radices []int, k int) (c1, c2 int) {
	sched := IndexMixedSchedule(n, radices, k)
	for _, blk := range sched {
		c2 += blk * b
	}
	return len(sched), c2
}

// OptimalRadixSchedule returns the mixed-radix vector minimizing the
// linear-model time for n processors, block size b and k ports, found
// by dynamic programming over digit weights: f(w) is the cheapest way
// to build all digit positions of weight below w, and a subphase of
// radix r at weight w costs its rounds and volume under the profile.
// The result is at least as good as every uniform radix (each uniform
// vector is a point in the search space). It panics when k < 1.
func OptimalRadixSchedule(p costmodel.Profile, n, b, k int) []int {
	if k < 1 {
		panic(fmt.Sprintf("collective: OptimalRadixSchedule(%d, %d, %d) out of domain: k < 1", n, b, k))
	}
	if n <= 1 {
		return nil
	}
	type state struct {
		cost  float64
		radix int // radix used for the subphase at this weight's predecessor
		prev  int // predecessor weight
	}
	// weights of interest: 1..n-1 (any weight >= n terminates). Weights
	// are processed in increasing order so each state is final when
	// expanded (all transitions strictly increase the weight).
	best := make(map[int]state, n)
	best[1] = state{cost: 0, radix: 0, prev: 0}
	done := state{cost: -1}
	for w := 1; w < n; w++ {
		s, ok := best[w]
		if !ok {
			continue
		}
		maxR := intmath.CeilDiv(n, w) // larger radices are equivalent to this one
		for r := 2; r <= maxR; r++ {
			h := intmath.Min(r, intmath.CeilDiv(n, w))
			cost := s.cost
			for start := 1; start < h; start += k {
				cost += p.Time(1, roundBlocks(n, r, w, start, k, h)*b)
			}
			nw := w * r
			if nw >= n {
				if done.cost < 0 || cost < done.cost {
					done = state{cost: cost, radix: r, prev: w}
				}
				continue
			}
			if old, ok := best[nw]; !ok || cost < old.cost {
				best[nw] = state{cost: cost, radix: r, prev: w}
			}
		}
	}
	// Reconstruct the vector from the terminal state.
	var rev []int
	cur := done
	for cur.radix != 0 {
		rev = append(rev, cur.radix)
		cur = best[cur.prev]
	}
	radices := make([]int, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		radices = append(radices, rev[i])
	}
	return radices
}
