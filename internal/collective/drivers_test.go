package collective

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// TestDriversAgree and TestMessagesMatchEvents are the two columns of
// the one deterministic grid every execution path is held to the oracle
// on (gridCells). TestDriversAgree is the walk's column: each cell's
// spec compiles on a plain engine and runs on the walk at one to four
// workers; per family, one more cell of two jobs on the halves of a
// 16-rank engine is dealt over the workers. Every run passes Verify and
// every Result holds Plan.Messages' count, bytes and per-round maxima.
func TestDriversAgree(t *testing.T) {
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			gridCells(f, func(where string, n, k int, groupOf []int, s Spec) {
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(groupOf))
				pl, err := Compile(e, mpsim.WorldGroup(n), s)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				for w := 1; w <= 4; w++ {
					walked(t, fmt.Sprintf("%s W=%d", where, w), w, Labels, pl)
				}
			})
			e, ids := mpsim.MustNew(16, mpsim.Ports(2)), mpsim.WorldGroup(16).IDs()
			half := func(ids []int) *Plan { return must(Compile(e, must(mpsim.NewGroup(ids, 16)), f.spec(8))) }
			halves := []*Plan{half(ids[:8]), half(ids[8:])}
			for w := 1; w <= 4; w++ {
				walked(t, fmt.Sprintf("two jobs of n=8 W=%d", w), w, Labels, halves...)
			}
		})
	}
}

// TestMessagesMatchEvents is the engine driver's column of the grid:
// each cell's spec compiles on a recording engine, and each family's
// largest cell at k = 2 also on a recording chaos engine with a
// straggler. Each run passes Verify, returns a Result holding
// Plan.Messages, and records exactly Plan.Messages — round, endpoints,
// size and link class. Chaos gets one cell a family, not every cell: a
// Check-clean program's bytes cannot depend on timing (internal/mpsim's
// package documentation argues why), so chaos tests the engine, not the
// schedules.
func TestMessagesMatchEvents(t *testing.T) {
	// A 20 µs jitter cap keeps the chaos runs short; reordering and the
	// straggler take the same path at any cap.
	chaos := mpsim.WithChaos(mpsim.ChaosConfig{Seed: 3, MaxDelay: 20 * time.Microsecond, Stragglers: []int{0}})
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			run := func(where string, n, k int, groupOf []int, s Spec, opts ...mpsim.Option) {
				e := mpsim.MustNew(n, append([]mpsim.Option{mpsim.Ports(k), mpsim.WithTopology(groupOf), mpsim.Record(true)}, opts...)...)
				pl, err := Compile(e, mpsim.WorldGroup(n), s)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				res, err := Exercise(pl, Labels)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				msgs := sendsMessages(t, where, pl, res)
				if got := e.Metrics().Events(); !slices.Equal(got, msgs) {
					t.Fatalf("%s: the run recorded\n  %v\nthe program predicts\n  %v", where, got, msgs)
				}
			}
			var largest func()
			largestN := 0
			gridCells(f, func(where string, n, k int, groupOf []int, s Spec) {
				run(where+" engine", n, k, groupOf, s)
				if k == 2 && n > largestN {
					largestN = n
					largest = func() { run(where+" chaos", n, k, groupOf, s, chaos) }
				}
			})
			largest()
		})
	}
}

// gridCells calls cell for every cell of family f's rows of the grid:
// n 1..12 — n 13..16 too for the wide families — at k 1..3, then n = 16
// on a 4x4 topology (a hierarchical family on that topology) at k 1..3.
// groupOf is the node-groups the cell's engines tag: a hierarchical
// spec's groups, nil for a flat cell.
func gridCells(f family, cell func(where string, n, k int, groupOf []int, s Spec)) {
	last := 12
	if f.wide {
		last = 16
	}
	for n := 1; n <= last; n++ {
		if f.pow2 && !intmath.IsPow(2, n) {
			continue
		}
		for k := 1; k <= min(3, max(1, n-1)); k++ {
			s := f.spec(n)
			var groupOf []int
			if s.Hierarchical {
				groupOf = s.Topology.GroupAssignment()
			}
			cell(fmt.Sprintf("n=%d k=%d", n, k), n, k, groupOf, s)
		}
	}
	topo := must(costmodel.ParseTopology("4x4"))
	s := f.spec(16)
	if s.Hierarchical {
		s.Topology = topo
	}
	for k := 1; k <= 3; k++ {
		cell(fmt.Sprintf("n=16 k=%d 4x4", k), 16, k, topo.GroupAssignment(), s)
	}
}

// walked runs the plans — of one engine, on disjoint groups — on the
// walk (walkJobs) at w workers, each on its own memory filled by fill,
// and holds every run to the oracle and its Result to the plan's
// messages.
func walked(t *testing.T, where string, w int, fill func(blk []byte, rank, block int), plans ...*Plan) {
	t.Helper()
	jobs := make([]Job, len(plans))
	for i, pl := range plans {
		jobs[i] = Job{pl, must(pl.Alloc())}
		pl.Fill(jobs[i].Mem, fill)
	}
	if err := walkJobs(plans[0].engine, jobs, w); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	for _, j := range jobs {
		if err := j.Plan.Verify(j.Mem); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		sendsMessages(t, where, j.Plan, j.Plan.result())
	}
}

// sendsMessages holds res to the messages pl sends — their count,
// bytes and per-round maxima — and returns them.
func sendsMessages(t *testing.T, where string, pl *Plan, res *Result) []mpsim.Event {
	t.Helper()
	var sizes []int
	var total int64
	msgs := pl.Messages()
	for _, m := range msgs {
		for len(sizes) <= m.Round {
			sizes = append(sizes, 0)
		}
		sizes[m.Round] = max(sizes[m.Round], m.Size)
		total += int64(m.Size)
	}
	if res.Messages != int64(len(msgs)) || res.TotalBytes != total || !slices.Equal(res.RoundSizes, sizes) {
		t.Fatalf("%s: the Result has %d messages of %d bytes, round maxima %v; the program sends %d of %d, maxima %v",
			where, res.Messages, res.TotalBytes, res.RoundSizes, len(msgs), total, sizes)
	}
	return msgs
}

// TestDriversRejectFaults runs one mutant per rule of the engine's
// validation through both drivers — the round-major one at one and at
// two workers — on an engine with a short watchdog. The round-major
// driver fails in the faulty round, naming it and the ranks, with the
// same text at either worker count, where the engine fails as its
// transport lets it: at once, after the watchdog, or — a payload nobody
// receives stays in the transport — not at all. Check, which walks the
// same rounds on labels, reports the round-major driver's text without
// its package prefix. Every driver then runs the unmutated plan
// correctly.
func TestDriversRejectFaults(t *testing.T) {
	const n, k = 8, 2
	spec := Spec{Op: OpIndex, BlockLen: 4, Index: IndexOptions{Radix: 2}} // one transfer a round: a spare port
	first := func(pl *Plan) *xfer { return &exchangeSteps(pl)[0].xfers[0] }
	for _, c := range []struct {
		name           string
		mutate         func(pl *Plan)
		rounds, engine string // the drivers' errors contain these; "" for no error
	}{
		{"self-send", func(pl *Plan) { first(pl).to = plus(0) },
			"collective: round 0: rank 0 addresses rank 0 (self-send or out of range; k-port)", "mpsim: p0 round 0: self-send"},
		{"more partners than k", func(pl *Plan) {
			rd, one := exchangeSteps(pl)[0], first(pl).send[:1]
			rd.xfers = append(rd.xfers[:1:1], xfer{to: plus(3), from: plus(-3), send: one, recv: one}, xfer{to: plus(5), from: plus(-5), send: one, recv: one})
		}, "collective: round 0: rank 0 uses 3 ports, k-port allows 2", "3 sends exceeds k = 2 ports"},
		{"a send nobody receives", func(pl *Plan) {
			rd := exchangeSteps(pl)[0]
			rd.xfers = append(rd.xfers[:1:1], xfer{to: plus(3), send: first(pl).send[:1]})
		}, "collective: delivery: round 0: rank 5 sends to rank 0, which does not receive it", ""},
		{"a receive nobody feeds", func(pl *Plan) { first(pl).from.c-- },
			"collective: delivery: round 0: rank 0 waits for rank 6, which sends it nothing", "deadlock"},
		{"a size mismatch", func(pl *Plan) {
			x := first(pl)
			x.recv = []extent{spanAt(x.recv[0].reg, fixed(0), 0, 1)}
		}, "group rank 1: collective: received 16 bytes from p0 into extents of 1 bytes in round 0", "into extents of 1 bytes in round 0"},
		{"a landed block sent as a descriptor", forceDesc, // the engine driver packs: it runs
			"collective: round 1: rank 0 sends as a descriptor a block that is neither its input nor holds one", ""},
	} {
		e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.Watchdog(200*time.Millisecond))
		clean := must(Compile(e, mpsim.WorldGroup(n), spec))
		mutant := must(Compile(e, mpsim.WorldGroup(n), spec))
		c.mutate(mutant)
		if v, want := mutant.Check(), strings.Replace(c.rounds, "collective: ", "", 1); !mentions(v, want) {
			t.Errorf("%s: Check reports %q, want a violation containing %q", c.name, v, want)
		}
		for _, d := range []struct {
			name string
			run  func(*Plan, Memory) (*Result, error)
			want string
		}{
			{"round-major", (*Plan).runRounds, c.rounds},
			{"round-major W=2", func(pl *Plan, m Memory) (*Result, error) { return pl.walkAt(2)(m) }, c.rounds},
			{"engine", (*Plan).runEngine, c.engine},
		} {
			mem := must(mutant.Alloc())
			mutant.Fill(mem, Labels)
			_, err := d.run(mutant, mem)
			switch {
			case d.want == "" && err != nil:
				t.Errorf("%s, %s driver: %v", c.name, d.name, err)
			case d.want != "" && (err == nil || !strings.Contains(err.Error(), d.want)):
				t.Errorf("%s, %s driver: error %v, want one containing %q", c.name, d.name, err, d.want)
			}
			mem = must(clean.Alloc())
			clean.Fill(mem, Labels)
			if _, err := d.run(clean, mem); err != nil {
				t.Fatalf("%s, %s driver: the clean plan after the mutant: %v", c.name, d.name, err)
			}
			if err := clean.Verify(mem); err != nil {
				t.Errorf("%s, %s driver: the clean plan after the mutant: %v", c.name, d.name, err)
			}
		}
	}
}

// TestWalkDealtJobsFault: several jobs dealt over two workers stop at a
// faulty plan's round with its text, whichever worker walks it, while a
// sound job dealt to the other worker runs; the next execution of sound
// plans succeeds.
func TestWalkDealtJobsFault(t *testing.T) {
	const n = 8
	spec := Spec{Op: OpIndex, BlockLen: 4, Index: IndexOptions{Radix: 2}}
	const want = "collective: delivery: round 0: rank 0 waits for rank 6, which sends it nothing"
	e := mpsim.MustNew(2 * n)
	ids := mpsim.WorldGroup(2 * n).IDs()
	lo, hi := must(mpsim.NewGroup(ids[:n], 2*n)), must(mpsim.NewGroup(ids[n:], 2*n))
	mutant := must(Compile(e, hi, spec))
	exchangeSteps(mutant)[0].xfers[0].from.c--
	sound, other := must(Compile(e, lo, spec)), must(Compile(e, hi, spec))
	job := func(pl *Plan) Job {
		mem := must(pl.Alloc())
		pl.Fill(mem, Labels)
		return Job{pl, mem}
	}
	for _, jobs := range [][]Job{{job(sound), job(mutant)}, {job(mutant), job(sound)}} {
		if err := walkJobs(e, jobs, 2); err == nil || err.Error() != want {
			t.Errorf("error %v, want %q", err, want)
		}
		for _, j := range jobs {
			if j.Plan == sound {
				if err := sound.Verify(j.Mem); err != nil {
					t.Errorf("the sound job beside the faulty one: %v", err)
				}
			}
		}
		clean := []Job{job(sound), job(other)}
		if err := walkJobs(e, clean, 2); err != nil {
			t.Fatalf("sound jobs after the faulty one: %v", err)
		}
		for _, j := range clean {
			if err := j.Plan.Verify(j.Mem); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestDriversRejectOverlap: a plan executed while its engine runs
// another is rejected with the engine's text on either driver — the
// round-major one at one and at two workers — and a run started while a
// plan executes, here by its reduction kernel, is too.
func TestDriversRejectOverlap(t *testing.T) {
	const n, want = 4, "mpsim: a run is already in flight on this engine (runs must not overlap)"
	e := mpsim.MustNew(n)
	var inner error
	once := new(sync.Once) // the kernel runs on every worker of the driver
	kernel := func(dst, src []byte) {
		once.Do(func() { inner = e.Run(func(*mpsim.Proc) error { return nil }) })
		for i := range dst {
			dst[i] += src[i]
		}
	}
	pl := must(Compile(e, mpsim.WorldGroup(n), Spec{Op: OpAllReduce, BlockLen: 8, Reduce: ReduceOptions{Kernel: kernel}}))
	mem := must(pl.Alloc())
	drivers := []func(Memory) (*Result, error){pl.runRounds, pl.walkAt(2), pl.runEngine}

	started, hold, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		done <- e.Run(func(p *mpsim.Proc) error {
			if p.Rank() == 0 {
				close(started)
				<-hold
			}
			return nil
		})
	}()
	<-started
	for i, run := range drivers {
		if _, err := run(mem); err == nil || err.Error() != want {
			t.Errorf("driver %d during a run: error %v, want %q", i, err, want)
		}
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	for i, run := range drivers {
		inner, once = nil, new(sync.Once)
		if _, err := run(mem); err != nil {
			t.Fatalf("driver %d: %v", i, err)
		}
		if inner == nil || inner.Error() != want {
			t.Errorf("driver %d: a run started by the kernel: error %v, want %q", i, inner, want)
		}
	}
}

// TestWalkWorkersAgree runs every ledger row on the walk at one to four
// workers (WalkersAgree; the golden corpus's rows are
// TestWalkWorkersAgreeGolden's, in package collective_test).
func TestWalkWorkersAgree(t *testing.T) {
	for _, row := range budgetRows() {
		t.Run(row.name, func(t *testing.T) {
			e := must(row.engine())
			groups := []*mpsim.Group{mpsim.WorldGroup(budgetN)}
			if row.mode == concurrent {
				ids := groups[0].IDs()
				groups = []*mpsim.Group{must(mpsim.NewGroup(ids[:budgetN/2], budgetN)), must(mpsim.NewGroup(ids[budgetN/2:], budgetN))}
			}
			plans := make([]*Plan, len(groups))
			for i, g := range groups {
				plans[i] = must(Compile(e, g, row.spec))
			}
			WalkersAgree(t, plans, row.fill())
		})
	}
}

// WalkersAgree runs the plans — of one engine, on disjoint groups — on
// the walk at one to four workers, each on its own memory filled by
// fill, and holds every run to the oracle (walked). It is exported for
// TestWalkWorkersAgreeGolden, whose package may import the golden
// corpus.
func WalkersAgree(t *testing.T, plans []*Plan, fill func(blk []byte, rank, block int)) {
	t.Helper()
	for w := 1; w <= 4; w++ {
		walked(t, fmt.Sprintf("W=%d", w), w, fill, plans...)
	}
}

// TestByRefForced forces every non-swap transfer of each grid cell's
// top-level program to send by reference (ByRefForced).
func TestByRefForced(t *testing.T) {
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			gridCells(f, func(where string, n, k int, groupOf []int, s Spec) {
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.WithTopology(groupOf))
				ByRefForced(t, where, must(Compile(e, mpsim.WorldGroup(n), s)))
			})
		})
	}
}

// ByRefForced marks every non-swap transfer of the plan's top-level
// program ref — the plan, compiled for the caller, is the caller's alone
// — and holds it to the by-reference proof: Check reports the hazard
// (errRefWrite), or it reports nothing and the walk at one to four
// workers passes Verify. Check may never pass a program the walk
// corrupts; under -race, the race detector sees every cross-worker read
// the proof clears. It is exported for TestByRefForcedGolden.
func ByRefForced(t *testing.T, where string, pl *Plan) {
	t.Helper()
	for r := range pl.prog.roles {
		for i := range pl.prog.roles[r].steps {
			for j := range pl.prog.roles[r].steps[i].xfers {
				if x := &pl.prog.roles[r].steps[i].xfers[j]; !x.swap {
					x.ref = true
				}
			}
		}
	}
	v := pl.Check()
	if mentions(v, "before every receiver may have landed them") {
		return
	}
	if len(v) > 0 {
		t.Fatalf("%s: by reference, Check reports %q", where, v)
	}
	for w := 1; w <= 4; w++ {
		walked(t, fmt.Sprintf("%s by reference W=%d", where, w), w, Labels, pl)
	}
}

// TestRoundMajorAtScale: an index and a concatenation at n = 1024 run
// on the round-major driver and deliver every block.
func TestRoundMajorAtScale(t *testing.T) {
	const n = 1024
	e := mpsim.MustNew(n)
	for _, s := range []Spec{{Op: OpIndex, BlockLen: 1}, {Op: OpConcat, BlockLen: 3}} {
		pl, err := Compile(e, mpsim.WorldGroup(n), s)
		if err != nil {
			t.Fatal(err)
		}
		mem := must(pl.Alloc())
		pl.Fill(mem, Labels)
		res, err := pl.runRounds(mem)
		if err != nil {
			t.Fatalf("%v: %v", s.Op, err)
		}
		if res.C1 != pl.Rounds() || res.C2 != pl.PredictedC2() {
			t.Errorf("%v: counted C1=%d C2=%d, compiled C1=%d C2=%d", s.Op, res.C1, res.C2, pl.Rounds(), pl.PredictedC2())
		}
		if err := pl.Verify(mem); err != nil {
			t.Error(err)
		}
	}
}

// ringAllReduce is the benchmark's allreduce-large schedule at block
// size b: the ring allreduce summing float32s.
func ringAllReduce(b int) Spec {
	s := Spec{Op: OpAllReduce, BlockLen: b, Reduce: must(KernelOptions(buffers.Sum, buffers.Float32))}
	s.Reduce.Algorithm = ReduceRing
	return s
}

// walkAt is the walk at w workers as a driver of pl, the test-only entry
// that fixes W.
func (pl *Plan) walkAt(w int) func(Memory) (*Result, error) {
	return func(m Memory) (*Result, error) {
		if err := walkJobs(pl.engine, []Job{{pl, m}}, w); err != nil {
			return nil, err
		}
		return pl.result(), nil
	}
}

// BenchmarkDrivers is the sweep walkParallelBytes is read from: the
// radix-2 index at n = 16 over block sizes 128 B .. 64 KiB and the ring
// allreduce at 16 KiB, each plan executed by the engine driver and by
// the walk at one worker and at GOMAXPROCS. Run it at one and two Ps:
//
//	go test -run xxx -bench Drivers -cpu 1,2 ./internal/collective
func BenchmarkDrivers(b *testing.B) {
	specs := []Spec{ringAllReduce(16 << 10)}
	for _, blockLen := range []int{128, 512, 1 << 10, 2 << 10, 4 << 10, 16 << 10, 64 << 10} {
		specs = append(specs, Spec{Op: OpIndex, BlockLen: blockLen, Index: IndexOptions{Radix: 2}})
	}
	for _, spec := range specs {
		e := mpsim.MustNew(budgetN)
		pl, err := Compile(e, mpsim.WorldGroup(budgetN), spec)
		if err != nil {
			b.Fatal(err)
		}
		mem, err := pl.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		pl.Fill(mem, buffers.Float32.Fill)
		for _, driver := range []string{"engine", "walk-1", "walk-P"} {
			b.Run(fmt.Sprintf("%v/%s/b=%d/%s", spec.Op, pl.Algorithm(), spec.BlockLen, driver), func(b *testing.B) {
				run := pl.runEngine
				switch driver {
				case "walk-1":
					run = pl.walkAt(1)
				case "walk-P": // GOMAXPROCS is -cpu's only inside b.Run
					run = pl.walkAt(runtime.GOMAXPROCS(0))
				}
				if _, err := run(mem); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := run(mem); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(pl.prog.copied), "copied/bytes")
			})
		}
	}
}
