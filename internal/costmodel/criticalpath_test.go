package costmodel_test

// The event-stream reference of the per-processor-clock accounting:
// collective.Plan.CriticalPath walks a plan's program, and this walks the
// messages a run of it sends (Plan.Messages, which golden.Capture holds
// to a recorded run). The two must agree on every golden case.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"bruck/internal/costmodel"
	"bruck/internal/golden"
	"bruck/internal/mpsim"
)

// criticalPath charges a recorded event stream by the three rules of
// Plan.CriticalPath: in a round a sender pays its costliest send, a
// message arrives at its sender's round start plus its price, and a
// processor leaves the round at the latest of the two. Events are
// grouped by round value first, so a stream in any order — interleaved
// per-processor appends, several programs' streams one after another —
// is accounted like a round-sorted one.
func criticalPath(n int, events []mpsim.Event, price func(src, dst, size int) float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("critical path with n = %d", n)
	}
	sorted := append([]mpsim.Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Round < sorted[j].Round })
	clock := make([]float64, n)
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Round == sorted[i].Round {
			j++
		}
		batch := sorted[i:j]
		i = j
		start := append([]float64(nil), clock...)
		for _, ev := range batch {
			if ev.Src < 0 || ev.Src >= n || ev.Dst < 0 || ev.Dst >= n {
				return 0, fmt.Errorf("event %+v outside n = %d", ev, n)
			}
			at := start[ev.Src] + price(ev.Src, ev.Dst, ev.Size)
			clock[ev.Src] = max(clock[ev.Src], at)
			clock[ev.Dst] = max(clock[ev.Dst], at)
		}
	}
	latest := 0.0
	for _, c := range clock {
		latest = max(latest, c)
	}
	return latest, nil
}

// flat prices every message under p.
func flat(p costmodel.Profile) func(src, dst, size int) float64 {
	return func(_, _, size int) float64 { return p.MessageTime(size) }
}

// linked prices every message by its link class's profile under t.
func linked(t *costmodel.Topology) func(src, dst, size int) float64 {
	return func(src, dst, size int) float64 { return t.ClassProfile(t.LinkClass(src, dst)).MessageTime(size) }
}

func TestCriticalPathEmptySchedule(t *testing.T) {
	got, err := criticalPath(4, nil, flat(costmodel.SP1))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty schedule time = %g, want 0", got)
	}
	if _, err := criticalPath(0, nil, flat(costmodel.SP1)); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := criticalPath(2, []mpsim.Event{{Round: 0, Src: 5, Dst: 0, Size: 1}}, flat(costmodel.SP1)); err == nil {
		t.Error("out-of-range event accepted")
	}
}

// TestCriticalPathSymmetricEqualsLinear: for a schedule where every
// processor sends the round-maximal message every round, the critical
// path equals C1*beta + C2*tau exactly.
func TestCriticalPathSymmetricEqualsLinear(t *testing.T) {
	const n = 4
	p := costmodel.Profile{Beta: 10, Tau: 1}
	var events []mpsim.Event
	sizes := []int{8, 2, 5}
	for round, size := range sizes {
		for src := 0; src < n; src++ {
			events = append(events, mpsim.Event{Round: round, Src: src, Dst: (src + 1) % n, Size: size})
		}
	}
	got, err := criticalPath(n, events, flat(p))
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Time(3, 8+2+5); math.Abs(got-want) > 1e-12 {
		t.Errorf("critical path %g, linear model %g", got, want)
	}
}

// TestCriticalPathSkewBeatsLinear: a two-round schedule in which round
// 1's big message comes from a processor idle in round 0 overlaps the
// rounds, so the critical path is one message time, below the
// linear-model estimate of two.
func TestCriticalPathSkewBeatsLinear(t *testing.T) {
	const n = 4
	p := costmodel.Profile{Beta: 10, Tau: 1}
	events := []mpsim.Event{
		{Round: 0, Src: 0, Dst: 1, Size: 100},
		{Round: 1, Src: 3, Dst: 2, Size: 100}, // p3 is idle so far, clock 0
	}
	got, err := criticalPath(n, events, flat(p))
	if err != nil {
		t.Fatal(err)
	}
	if want := p.MessageTime(100); math.Abs(got-want) > 1e-12 {
		t.Errorf("critical path %g, want %g", got, want)
	}
	if linear := p.Time(2, 200); got >= linear {
		t.Errorf("critical path %g should be below the linear estimate %g", got, linear)
	}
}

// TestCriticalPathChainsDependencies: a receiver that forwards in the
// next round inherits the arrival time.
func TestCriticalPathChainsDependencies(t *testing.T) {
	events := []mpsim.Event{
		{Round: 0, Src: 0, Dst: 1, Size: 4}, // arrives at 5
		{Round: 1, Src: 1, Dst: 2, Size: 2}, // starts at 5, arrives at 8
	}
	got, err := criticalPath(3, events, flat(costmodel.Profile{Beta: 1, Tau: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-8) > 1e-12 {
		t.Errorf("critical path %g, want 8", got)
	}
}

// TestCriticalPathInterleavedPrograms: a stream that revisits a round
// number — the per-processor append order of a concurrent run, or two
// programs' streams merged without re-sorting — is one batch per round,
// not one per contiguous run. Two 2-processor rings are recorded in
// per-processor order; batching by contiguity would serialize each
// fully overlapped ring (4 message times instead of 2).
func TestCriticalPathInterleavedPrograms(t *testing.T) {
	const n, size = 4, 100
	p := costmodel.Profile{Beta: 10, Tau: 1}
	perProc := func(a, b int) []mpsim.Event {
		return []mpsim.Event{
			{Round: 0, Src: a, Dst: b, Size: size},
			{Round: 1, Src: a, Dst: b, Size: size},
			{Round: 0, Src: b, Dst: a, Size: size},
			{Round: 1, Src: b, Dst: a, Size: size},
		}
	}
	events := append(perProc(0, 1), perProc(2, 3)...)
	got, err := criticalPath(n, events, flat(p))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * p.MessageTime(size); math.Abs(got-want) > 1e-12 {
		t.Errorf("interleaved stream critical path %g, want %g", got, want)
	}
	sorted := append([]mpsim.Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Round < sorted[j].Round })
	fromSorted, err := criticalPath(n, sorted, flat(p))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-fromSorted) > 1e-12 {
		t.Errorf("event order changed the result: %g (raw) vs %g (sorted)", got, fromSorted)
	}
}

// ring returns the body of a ring of len(members)-1 rounds over members.
func ring(members []int, size int) func(p *mpsim.Proc) error {
	return func(p *mpsim.Proc) error {
		me := -1
		for i, id := range members {
			if id == p.Rank() {
				me = i
			}
		}
		succ, pred := members[(me+1)%len(members)], members[(me+len(members)-1)%len(members)]
		for q := 0; q < len(members)-1; q++ {
			if _, err := p.SendRecv(succ, make([]byte, size), pred); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestCriticalPathMergedRunPrograms drives a real two-program
// RunPrograms pass with recording on and checks that the appended
// per-program streams cost the worst program's time: disjoint-group
// programs never couple.
func TestCriticalPathMergedRunPrograms(t *testing.T) {
	const n = 6
	e := mpsim.MustNew(n, mpsim.Record(true))
	metrics, err := e.RunPrograms([]mpsim.Program{
		{Members: []int{0, 1, 2, 3}, Body: ring([]int{0, 1, 2, 3}, 40)},
		{Members: []int{4, 5}, Body: ring([]int{4, 5}, 24)},
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := criticalPath(n, append(metrics[0].Events(), metrics[1].Events()...), flat(costmodel.SP1))
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, m := range metrics {
		cp, err := criticalPath(n, m.Events(), flat(costmodel.SP1))
		if err != nil {
			t.Fatal(err)
		}
		worst = max(worst, cp)
	}
	if math.Abs(merged-worst) > 1e-12 {
		t.Errorf("merged critical path %g, worst per-program %g; disjoint programs must not couple", merged, worst)
	}
}

// TestCriticalPathNeverExceedsLinearOnRealSchedules: a ring run on the
// engine is symmetric, so its recorded critical path is exactly the
// linear estimate of its measured C1 and C2.
func TestCriticalPathNeverExceedsLinearOnRealSchedules(t *testing.T) {
	const n = 5
	e := mpsim.MustNew(n, mpsim.Record(true))
	if err := e.Run(ring([]int{0, 1, 2, 3, 4}, 16)); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	cp, err := criticalPath(n, m.Events(), flat(costmodel.SP1))
	if err != nil {
		t.Fatal(err)
	}
	if linear := costmodel.SP1.Time(m.Rounds(), m.DataVolume()); math.Abs(cp-linear) > 1e-12 {
		t.Errorf("ring schedule is symmetric; critical path %g should equal linear %g", cp, linear)
	}
}

// TestTopologyCriticalPath: under a topology each message pays its own
// link's class; with Intra == Inter that is the flat accounting.
func TestTopologyCriticalPath(t *testing.T) {
	topo, err := costmodel.ParseTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	events := []mpsim.Event{
		{Round: 0, Src: 0, Dst: 1, Size: 8},
		{Round: 1, Src: 1, Dst: 2, Size: 8},
	}
	got, err := criticalPath(4, events, linked(topo))
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2's arrival chains behind rank 1's intra receive: one intra
	// hop then one inter hop.
	if want := topo.Intra.MessageTime(8) + topo.Inter.MessageTime(8); math.Abs(got-want) > 1e-18 {
		t.Fatalf("topology critical path = %g, want %g", got, want)
	}
	uniform := &costmodel.Topology{Groups: []int{2, 2}, Intra: costmodel.SP1, Inter: costmodel.SP1}
	ft, err := criticalPath(4, events, linked(uniform))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := criticalPath(4, events, flat(costmodel.SP1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ft-cp) > 1e-18 {
		t.Fatalf("uniform topology critical path %g != flat %g", ft, cp)
	}
}

// TestPlanCriticalPathMatchesEvents is the differential test of the
// program walk: on every golden case, and on the folklore gather at
// n = 7, Plan.CriticalPath under SP1 equals the reference over the
// events a recorded run of the plan sent, and never exceeds Plan.Time; a
// hierarchical case's Plan.CriticalPathTopo equals the reference under
// its topology. Where every rank sends the round's largest message in
// every round, the clocks move in lockstep and the critical path is
// Time — every flat golden family does. The skewed schedules come in
// strictly under it: the folklore gather's truncated subtrees at n = 7
// run ahead of the root, and a hierarchical plan's idle non-leaders and
// one-sided fan phases leave ranks out of most rounds.
func TestPlanCriticalPathMatchesEvents(t *testing.T) {
	skewed := map[string]bool{"concat-folklore-n7-k1": true, "hier-index-4x4": true, "hier-concat-4-4-3": true, "hier-allreduce-4x4": true}
	folklore := golden.Case{Name: "concat-folklore-n7-k1", Op: "concat", Alg: "folklore", N: 7, K: 1, B: 64}
	for _, c := range append(golden.Corpus(), folklore) {
		pl, err := golden.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := golden.Capture(c); err != nil { // a recorded run sends exactly pl.Messages()
			t.Fatal(err)
		}
		events := pl.Messages()
		want, err := criticalPath(c.N, events, flat(costmodel.SP1))
		if err != nil {
			t.Fatal(err)
		}
		got, linear := pl.CriticalPath(costmodel.SP1), pl.Time(costmodel.SP1)
		switch {
		case math.Abs(got-want) > 1e-12:
			t.Errorf("%s: plan critical path %g, recorded events %g", c.Name, got, want)
		case skewed[c.Name] && got >= linear:
			t.Errorf("%s: skewed schedule's critical path %g is not below Time %g", c.Name, got, linear)
		case !skewed[c.Name] && math.Abs(got-linear) > 1e-12:
			t.Errorf("%s: symmetric schedule's critical path %g, Time %g", c.Name, got, linear)
		}
		if c.Topology == "" {
			continue
		}
		topo, err := costmodel.ParseTopology(c.Topology)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = criticalPath(c.N, events, linked(topo)); err != nil {
			t.Fatal(err)
		}
		if got, err = pl.CriticalPathTopo(topo); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: plan critical path under %s %g (%v), recorded events %g", c.Name, c.Topology, got, err, want)
		}
	}
}
