package collective

import (
	"fmt"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/partition"
)

// This file holds the closed-form complexity predictions for every
// algorithm. The tests assert that schedules executed on the simulator
// match these forms exactly, which is what makes the bench harness's
// model times trustworthy.

// digitCount returns |{ id in [0,n) : radix-r digit at position pos of
// id equals z }| where dist = r^pos, computed in O(1).
func digitCount(n, r, z, dist int) int {
	period := dist * r
	full := (n / period) * dist
	rem := n%period - z*dist
	if rem < 0 {
		rem = 0
	}
	if rem > dist {
		rem = dist
	}
	return full + rem
}

// roundBlocks returns the blocks a round moves on its busiest port: the
// largest digitCount among the k digits from start on, below h.
func roundBlocks(n, r, dist, start, k, h int) (most int) {
	for z := start; z < start+k && z < h; z++ {
		most = max(most, digitCount(n, r, z, dist))
	}
	return most
}

// IndexSchedule returns the per-round largest message size, in blocks,
// of the radix-r Bruck index algorithm among n processors with k ports.
// len(result) is C1 and b * sum(result) is C2. It panics when k < 1.
func IndexSchedule(n, r, k int) []int {
	if k < 1 {
		panic(fmt.Sprintf("collective: IndexSchedule(%d, %d, %d) out of domain: k < 1", n, r, k))
	}
	if n <= 1 {
		return nil
	}
	var rounds []int
	w := intmath.CeilLog(r, n)
	dist := 1
	for pos := 0; pos < w; pos++ {
		h := r
		if pos == w-1 {
			h = intmath.CeilDiv(n, dist)
		}
		for start := 1; start < h; start += k {
			rounds = append(rounds, roundBlocks(n, r, dist, start, k, h))
		}
		dist *= r
	}
	return rounds
}

// IndexCost returns the closed-form (C1, C2) of the radix-r Bruck index
// algorithm for block size b bytes.
func IndexCost(n, b, r, k int) (c1, c2 int) {
	sched := IndexSchedule(n, r, k)
	for _, blocks := range sched {
		c2 += blocks * b
	}
	return len(sched), c2
}

// IndexCostEnvelope returns the paper's Section 3.2/3.4 upper-bound
// envelope: C1 <= ceil((r-1)/k)*ceil(log_r n) and
// C2 <= ceil((r-1)/k)*ceil(n/r)*ceil(log_r n)*b. The envelope on C2 is
// stated for n a power of r; for other n the top subphase can exceed
// ceil(n/r) blocks per message, so callers should only assert it there.
func IndexCostEnvelope(n, b, r, k int) (c1, c2 int) {
	if n <= 1 {
		return 0, 0
	}
	w := intmath.CeilLog(r, n)
	steps := intmath.CeilDiv(r-1, k)
	return steps * w, steps * w * intmath.CeilDiv(n, r) * b
}

// DirectIndexCost returns (C1, C2) of the direct-exchange index: one
// block per port per round, the r = n member of the Bruck family.
func DirectIndexCost(n, b, k int) (c1, c2 int) { return IndexCost(n, b, n, k) }

// ConcatCost returns the closed-form (C1, C2) of the circulant
// concatenation algorithm under the given last-round policy.
func ConcatCost(n, b, k int, policy partition.Policy) (c1, c2 int, err error) {
	if n <= 1 {
		return 0, 0, nil
	}
	if k >= n-1 {
		return 1, b, nil
	}
	d := intmath.CeilLog(k+1, n)
	n1 := intmath.Pow(k+1, d-1)
	c1 = d - 1
	c2 = b * (n1 - 1) / k // sum of b*(k+1)^i for i = 0..d-2
	plan, err := partition.Solve(b, n-n1, n1, k, policy)
	if err != nil {
		return 0, 0, err
	}
	return c1 + len(plan.Rounds), c2 + plan.C2(), nil
}

// TreeGatherCost returns (C1, C2) of one traversal of the (k+1)-nomial
// tree that moves whole subtrees of b-byte blocks over every edge: the
// gather, and the scatter that reverses it. The round of position pos
// moves the subtrees of the ranks t*(k+1)^pos, t = 1..k, the largest
// being rank (k+1)^pos's min((k+1)^pos, n - (k+1)^pos) blocks.
func TreeGatherCost(n, b, k int) (c1, c2 int) {
	for base := 1; base < n; base *= k + 1 {
		c1++
		c2 += intmath.Min(base, n-base) * b
	}
	return c1, c2
}

// TreeBroadcastCost returns (C1, C2) of one traversal of the tree that
// moves the same b bytes over every edge.
func TreeBroadcastCost(n, b, k int) (c1, c2 int) {
	if n <= 1 {
		return 0, 0
	}
	c1 = intmath.CeilLog(k+1, n)
	return c1, c1 * b
}

// FolkloreConcatCost returns (C1, C2) of the gather+broadcast folklore
// algorithm: a gather of b-byte blocks, then a broadcast of the full
// n*b concatenation. (The paper quotes 2b(n-1) for this baseline's total
// per-node traffic; under the round-max C2 measure the broadcast phase
// costs ceil(log_{k+1} n)*n*b.)
func FolkloreConcatCost(n, b, k int) (c1, c2 int) {
	g1, g2 := TreeGatherCost(n, b, k)
	b1, b2 := TreeBroadcastCost(n, n*b, k)
	return g1 + b1, g2 + b2
}

// RingConcatCost returns (C1, C2) of the ring baseline.
func RingConcatCost(n, b int) (c1, c2 int) {
	if n <= 1 {
		return 0, 0
	}
	return n - 1, (n - 1) * b
}

// RecursiveDoublingConcatCost returns (C1, C2) of the hypercube exchange
// for power-of-two n: round i moves the binomial gather's 2^i blocks.
func RecursiveDoublingConcatCost(n, b int) (c1, c2 int) { return TreeGatherCost(n, b, 1) }

// SegmentedIndexCost returns the closed-form (C1, C2) of the radix-r
// Bruck index algorithm pipelined over s segments: each b-byte block is
// split into s spans (SplitSpans) and span i streams through the round
// structure starting at merged round i, so C1 = rounds + s - 1 and C2
// sums, over merged rounds, the largest message among the segments live
// in that round. The clamps are the pipeline pass's: s is capped at the
// block size and the round count, and 1 or under is IndexCost. The
// result equals the compiled pipelined plan's measures exactly, which
// the tests assert.
func SegmentedIndexCost(n, b, r, k, s int) (c1, c2 int) {
	sched := IndexSchedule(n, r, k)
	rounds := len(sched)
	if s = min(s, b, rounds); s <= 1 {
		return IndexCost(n, b, r, k)
	}
	spans := buffers.SplitSpans(b, s)
	c1 = costmodel.PipelinedC1(rounds, s)
	for t := 0; t < c1; t++ {
		stepMax := 0
		for seg := max(0, t-rounds+1); seg <= min(t, s-1); seg++ {
			stepMax = max(stepMax, sched[t-seg]*spans[seg].Len)
		}
		c2 += stepMax
	}
	return c1, c2
}

// OptimalSegments returns the segment count s >= 1 minimizing the
// linear-model time of the pipelined radix-r Bruck index algorithm for
// the given machine profile, block size and port count. It searches the
// power-of-two candidates {1, 2, 4, 8, 16}; larger counts only stretch
// the pipeline (C1 grows linearly in s while the per-round saving has
// already flattened). Returning 1 means the monolithic schedule wins.
func OptimalSegments(p costmodel.Profile, n, b, r, k int) int {
	best, bestTime := 1, 0.0
	for _, s := range []int{1, 2, 4, 8, 16} {
		c1, c2 := SegmentedIndexCost(n, b, r, k, s)
		t := p.Time(c1, c2)
		if s == 1 || t < bestTime {
			best, bestTime = s, t
		}
	}
	return best
}

// OptimalRadix returns the radix r in [2, n] minimizing the
// linear-model time of the Bruck index algorithm for the given machine
// profile, block size and port count. With powerOfTwoOnly it restricts
// the search to power-of-two radices (and r = n), matching the
// implementation study of Section 3.5.
func OptimalRadix(p costmodel.Profile, n, b, k int, powerOfTwoOnly bool) int {
	if n <= 2 {
		return 2
	}
	best, bestTime := -1, 0.0
	for r := 2; r <= n; r++ {
		if powerOfTwoOnly && !intmath.IsPow(2, r) && r != n {
			continue
		}
		c1, c2 := IndexCost(n, b, r, k)
		t := p.Time(c1, c2)
		if best == -1 || t < bestTime {
			best, bestTime = r, t
		}
	}
	return best
}
