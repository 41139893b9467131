package collective

import (
	"bytes"
	"fmt"
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
// validation through both drivers on an engine with a short watchdog.
// The round-major driver fails in the faulty round, naming it and the
// ranks, where the engine fails as its transport lets it: at once, after
// the watchdog, or — a payload nobody receives stays in the transport —
// not at all. Check, which walks the same rounds on labels, reports the
// round-major driver's text without its package prefix. Both engines
// then run the unmutated plan correctly.
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
		}{{"round-major", (*Plan).runRounds, c.rounds}, {"engine", (*Plan).runEngine, c.engine}} {
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

// TestDriversRejectOverlap: a plan executed while its engine runs
// another is rejected with the engine's text on either driver, and a run
// started while a plan executes — here by its reduction kernel — is too.
func TestDriversRejectOverlap(t *testing.T) {
	const n, want = 4, "mpsim: a run is already in flight on this engine (runs must not overlap)"
	e := mpsim.MustNew(n)
	var inner error
	once := new(sync.Once) // the engine driver's kernel runs on every rank's worker
	kernel := func(dst, src []byte) {
		once.Do(func() { inner = e.Run(func(*mpsim.Proc) error { return nil }) })
		for i := range dst {
			dst[i] += src[i]
		}
	}
	pl := must(Compile(e, mpsim.WorldGroup(n), Spec{Op: OpAllReduce, BlockLen: 8, Reduce: ReduceOptions{Kernel: kernel}}))
	mem := must(pl.Alloc())
	drivers := []func(Memory) (*Result, error){pl.runRounds, pl.runEngine}

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

// TestDriverSelection pins the rule Plan.run picks a driver by, on plan
// and engine properties: a plan copying at most roundMajorBytes per
// execution on a plain engine runs round-major, anything else on the
// engine.
func TestDriverSelection(t *testing.T) {
	index := func(b int) Spec { return Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Radix: 2}} }
	ring := Spec{Op: OpAllReduce, BlockLen: 16 << 10, Reduce: must(KernelOptions(buffers.Sum, buffers.Float32))}
	ring.Reduce.Algorithm = ReduceRing
	for _, c := range []struct {
		name   string
		spec   Spec
		engine mpsim.Option
		rounds bool
	}{
		{"index b=128 chan", index(128), mpsim.WithTransport(mpsim.BackendChan), true},
		{"index b=128 slot", index(128), mpsim.WithTransport(mpsim.BackendSlot), true},
		{"index b=64KiB", index(64 << 10), mpsim.WithTransport(mpsim.BackendChan), false},
		{"ring allreduce b=16KiB", ring, mpsim.WithTransport(mpsim.BackendChan), false},
		{"index b=128 chaos", index(128), mpsim.WithChaos(mpsim.ChaosConfig{Seed: 1}), false},
		{"index b=128 recording", index(128), mpsim.Record(true), false},
	} {
		pl, err := Compile(mpsim.MustNew(budgetN, c.engine), mpsim.WorldGroup(budgetN), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.roundMajor(); got != c.rounds {
			t.Errorf("%s: copies %d bytes, round-major %v, want %v", c.name, pl.prog.copied, got, c.rounds)
		}
	}
}

// BenchmarkDrivers is the sweep roundMajorBytes is read from: the radix-2
// index at n = 16 over block sizes 128 B .. 64 KiB, each plan executed
// by both drivers. Run it at one and two Ps:
//
//	go test -run xxx -bench Drivers -cpu 1,2 ./internal/collective
func BenchmarkDrivers(b *testing.B) {
	for _, blockLen := range []int{128, 512, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		e := mpsim.MustNew(budgetN)
		pl, err := Compile(e, mpsim.WorldGroup(budgetN), Spec{Op: OpIndex, BlockLen: blockLen, Index: IndexOptions{Radix: 2}})
		if err != nil {
			b.Fatal(err)
		}
		mem, err := pl.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		pl.Fill(mem, Labels)
		for _, driver := range []struct {
			name string
			run  func(Memory) (*Result, error)
		}{{"engine", pl.runEngine}, {"rounds", pl.runRounds}} {
			b.Run(fmt.Sprintf("b=%d/%s", blockLen, driver.name), func(b *testing.B) {
				if _, err := driver.run(mem); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := driver.run(mem); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(pl.prog.copied), "copied/bytes")
			})
		}
	}
}
