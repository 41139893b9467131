package collective

import (
	"bytes"
	"fmt"
	"reflect"
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

// TestDriversAgree runs every family of TestMessagesMatchEvents' grid on
// both drivers, called directly: n 1..12 and k 1..3 on a flat engine —
// and, for a hierarchical plan, on one tagging its groups of three — then
// n = 16 on a 4x4 topology. The output bytes are identical, and each
// driver's Result holds Plan.Messages' count, bytes and per-round
// maxima.
func TestDriversAgree(t *testing.T) {
	topo := must(costmodel.ParseTopology("4x4"))
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			for n := 1; n <= 12; n++ {
				if f.pow2 && !intmath.IsPow(2, n) {
					continue
				}
				for k := 1; k <= min(3, max(1, n-1)); k++ {
					s := f.spec(n)
					driversAgree(t, fmt.Sprintf("n=%d k=%d flat", n, k), n, s, mpsim.Ports(k))
					if s.Hierarchical {
						driversAgree(t, fmt.Sprintf("n=%d k=%d tagged", n, k), n, s, mpsim.Ports(k), mpsim.WithTopology(s.Topology.GroupAssignment()))
					}
				}
			}
			s := f.spec(16)
			if s.Hierarchical {
				s.Topology = topo
			}
			for k := 1; k <= 3; k++ {
				driversAgree(t, fmt.Sprintf("n=16 k=%d 4x4", k), 16, s, mpsim.Ports(k), mpsim.WithTopology(topo.GroupAssignment()))
			}
		})
	}
}

// driversAgree compiles s for n ranks on an engine built from opts and
// holds the two drivers to each other and to the program
// (TestDriversAgree).
func driversAgree(t *testing.T, where string, n int, s Spec, opts ...mpsim.Option) {
	t.Helper()
	pl, err := Compile(mpsim.MustNew(n, opts...), mpsim.WorldGroup(n), s)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	var mem [2]Memory
	var res [2]*Result
	for i, run := range []func(Memory) (*Result, error){pl.runEngine, pl.runRounds} {
		mem[i] = must(pl.Alloc())
		pl.Fill(mem[i], Labels)
		if res[i], err = run(mem[i]); err != nil {
			t.Fatalf("%s: driver %d: %v", where, i, err)
		}
	}
	for r := 0; r < n; r++ {
		if !bytes.Equal(mem[0].side[regOut].Proc(r), mem[1].side[regOut].Proc(r)) {
			t.Fatalf("%s: rank %d's output differs between the drivers", where, r)
		}
	}
	if err := pl.Verify(mem[1]); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
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
	for _, got := range res {
		if got.Messages != int64(len(msgs)) || got.TotalBytes != total || !slices.Equal(got.RoundSizes, sizes) {
			t.Fatalf("%s: the Result has %d messages of %d bytes, round maxima %v; the program sends %d of %d, maxima %v",
				where, got.Messages, got.TotalBytes, got.RoundSizes, len(msgs), total, sizes)
		}
	}
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

// TestWalkWorkersAgree holds the walk at two, three and four workers to
// the walk at one on every ledger row (the golden corpus's rows are
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
// the walk (walkJobs) at one to four workers, each on its own memory
// filled by fill, and holds every output byte and Result at two to four
// workers to those at one; every run must pass Verify. It is exported
// for TestWalkWorkersAgreeGolden, whose package may import the golden
// corpus.
func WalkersAgree(t *testing.T, plans []*Plan, fill func(blk []byte, rank, block int)) {
	t.Helper()
	var first []Job
	for w := 1; w <= 4; w++ {
		jobs := make([]Job, len(plans))
		for i, pl := range plans {
			jobs[i] = Job{pl, must(pl.Alloc())}
			pl.Fill(jobs[i].Mem, fill)
		}
		if err := walkJobs(plans[0].engine, jobs, w); err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if w == 1 {
			first = jobs
		}
		for i, j := range jobs {
			if err := j.Plan.Verify(j.Mem); err != nil {
				t.Errorf("W=%d, plan %d: %v", w, i, err)
			}
			if !reflect.DeepEqual(j.Plan.result(), first[i].Plan.result()) {
				t.Errorf("W=%d, plan %d: Result %+v, at one worker %+v", w, i, j.Plan.result(), first[i].Plan.result())
			}
			for r := 0; r < j.Plan.group.Size(); r++ {
				if !bytes.Equal(j.Mem.side[regOut].Proc(r), first[i].Mem.side[regOut].Proc(r)) {
					t.Errorf("W=%d, plan %d: rank %d's output differs from the walk at one worker", w, i, r)
				}
			}
		}
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

// TestDriverSelection pins the rule Plan.run picks a driver by, on
// engine properties only: any plan on a plain engine runs round-major,
// whatever it copies, and on a chaos or recording engine on the engine.
func TestDriverSelection(t *testing.T) {
	index := func(b int) Spec { return Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Radix: 2}} }
	for _, c := range []struct {
		name   string
		spec   Spec
		engine []mpsim.Option
		rounds bool
	}{
		{"index b=128", index(128), nil, true},
		{"index b=64KiB", index(64 << 10), nil, true},
		{"ring allreduce b=16KiB", ringAllReduce(16 << 10), nil, true},
		{"index b=128 chaos", index(128), []mpsim.Option{mpsim.WithChaos(mpsim.ChaosConfig{Seed: 1})}, false},
		{"index b=128 recording", index(128), []mpsim.Option{mpsim.Record(true)}, false},
	} {
		pl, err := Compile(mpsim.MustNew(budgetN, c.engine...), mpsim.WorldGroup(budgetN), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.roundMajor(); got != c.rounds {
			t.Errorf("%s: round-major %v, want %v", c.name, got, c.rounds)
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
	for _, blockLen := range []int{128, 512, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
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
