package costmodel

import (
	"fmt"
	"sort"

	"bruck/internal/mpsim"
)

// CriticalPath evaluates the completion time of a recorded schedule
// under the linear model, tracking per-processor clocks instead of
// charging every processor for every round.
//
// The paper's estimate T = C1*beta + C2*tau charges each round at the
// globally largest message, which is exact for the symmetric,
// translation-invariant schedules of the index and concatenation
// algorithms but pessimistic for skewed schedules (for example a
// binomial gather, where late rounds involve few processors). Models
// like BSP, the Postal model and LogP — which the paper cites as more
// detailed alternatives (Section 1.2) — account for this by letting a
// receiver finish later than the matching sender started. CriticalPath
// is the linear-model version of that accounting:
//
//   - in a round, a sending processor pays beta plus tau times the
//     largest message it sends on any of its ports (ports operate in
//     parallel);
//   - a message sent in round r arrives at the sender's round-r start
//     time plus beta + size*tau;
//   - a processor leaves a round at the latest of its own send
//     completion and the arrivals of every message it receives in the
//     round.
//
// The result is the largest clock over all processors. For any
// schedule it is at most Rounds*beta + DataVolume*tau; equality holds
// exactly for schedules in which every processor participates in every
// round with the round-maximal message size.
//
// Events must come from runs recorded with mpsim.Record(true); n is
// the processor count of the engine. The stream may arrive in any
// order: events are grouped by round value before the walk, so the
// streams of several programs of one mpsim.RunPrograms pass appended
// one after the other, or events recorded in interleaved per-processor
// order, are accounted exactly like a round-sorted stream. (Grouping by contiguity instead would split a revisited
// round number into several batches and mis-sequence the per-processor
// clocks within it.) Same-numbered rounds of disjoint-group programs
// may safely share a batch — the accounting couples processors only
// through the messages between them.
func CriticalPath(p Profile, n int, events []mpsim.Event) (float64, error) {
	return criticalPath(n, events, func(src, dst, size int) float64 {
		return p.MessageTime(size)
	})
}

// CriticalPathTopo is CriticalPath under a two-level topology: each
// message is priced by the profile of the link it crosses
// (Topology.LinkProfile — intra, inter, or the pair's override), so a
// hierarchical schedule's intra-group rounds cost intra-group time
// even when the machine's inter-group links are an order of magnitude
// slower. On a single-group topology it equals CriticalPath under the
// Intra profile.
func CriticalPathTopo(t *Topology, n int, events []mpsim.Event) (float64, error) {
	if t == nil {
		return 0, fmt.Errorf("costmodel: CriticalPathTopo with nil topology")
	}
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if t.N() != n {
		return 0, fmt.Errorf("costmodel: topology covers %d processors, machine has %d", t.N(), n)
	}
	return criticalPath(n, events, func(src, dst, size int) float64 {
		return t.LinkProfile(src, dst).MessageTime(size)
	})
}

// criticalPath is the shared per-processor-clock walk: price is the
// full delivery cost of one message on its link.
func criticalPath(n int, events []mpsim.Event, price func(src, dst, size int) float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("costmodel: CriticalPath with n = %d", n)
	}
	sorted := append([]mpsim.Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Round < sorted[j].Round })
	clock := make([]float64, n)
	i := 0
	for i < len(sorted) {
		// One batch per distinct round value.
		round := sorted[i].Round
		j := i
		for j < len(sorted) && sorted[j].Round == round {
			j++
		}
		batch := sorted[i:j]
		i = j

		start := make([]float64, n)
		copy(start, clock)
		// Sender-side cost: the costliest message this processor sends
		// this round (ports operate in parallel; with heterogeneous
		// links the costliest message need not be the largest).
		sendMax := make(map[int]float64, len(batch))
		for _, ev := range batch {
			if ev.Src < 0 || ev.Src >= n || ev.Dst < 0 || ev.Dst >= n {
				return 0, fmt.Errorf("costmodel: event %+v outside n = %d", ev, n)
			}
			if c := price(ev.Src, ev.Dst, ev.Size); c > sendMax[ev.Src] {
				sendMax[ev.Src] = c
			}
		}
		for src, c := range sendMax {
			if t := start[src] + c; t > clock[src] {
				clock[src] = t
			}
		}
		// Receiver-side: the round ends for dst no earlier than every
		// arrival.
		for _, ev := range batch {
			arrival := start[ev.Src] + price(ev.Src, ev.Dst, ev.Size)
			if arrival > clock[ev.Dst] {
				clock[ev.Dst] = arrival
			}
		}
	}
	max := 0.0
	for _, c := range clock {
		if c > max {
			max = c
		}
	}
	return max, nil
}
