package mpsim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts []Option
		ok   bool
	}{
		{"n1", 1, nil, true},
		{"n0", 0, nil, false},
		{"negative", -3, nil, false},
		{"k1", 8, []Option{Ports(1)}, true},
		{"kmax", 8, []Option{Ports(7)}, true},
		{"kTooBig", 8, []Option{Ports(8)}, false},
		{"kZero", 8, []Option{Ports(0)}, false},
		{"kNegative", 8, []Option{Ports(-1)}, false},
		{"singleProcAnyK", 1, []Option{Ports(1)}, true},
		{"unknownBackend", 4, []Option{WithTransport(Backend("bogus"))}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.n, tc.opts...)
			if (err == nil) != tc.ok {
				t.Fatalf("New(%d, %v) error = %v, want ok=%v", tc.n, tc.opts, err, tc.ok)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

// TestRingShift sends each rank's payload one step around a ring and
// checks contents and the recorded messages.
func TestRingShift(t *testing.T) {
	const n = 8
	e := MustNew(n, Record(true))
	got := make([][]byte, n)
	err := e.Run(func(p *Proc) error {
		me := p.Rank()
		out := []byte(fmt.Sprintf("payload-from-%d", me))
		in, err := p.SendRecv((me+1)%n, out, (me-1+n)%n)
		if err != nil {
			return err
		}
		got[me] = in
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("payload-from-%d", (i-1+n)%n)
		if string(got[i]) != want {
			t.Errorf("p%d received %q, want %q", i, got[i], want)
		}
	}
	events := e.Metrics().Events()
	if len(events) != n {
		t.Fatalf("%d events, want %d", len(events), n)
	}
	for i, ev := range events {
		if want := (Event{Round: 0, Src: i, Dst: (i + 1) % n, Size: len("payload-from-0")}); ev != want {
			t.Errorf("event %d = %+v, want %+v", i, ev, want)
		}
	}
}

// TestSendBufferReuse checks the engine copies payloads: mutating the
// send buffer after SendRecv must not corrupt the received message.
func TestSendBufferReuse(t *testing.T) {
	e := MustNew(2)
	var received []byte
	err := e.Run(func(p *Proc) error {
		buf := []byte{1, 2, 3, 4}
		other := 1 - p.Rank()
		in, err := p.SendRecv(other, buf, other)
		if err != nil {
			return err
		}
		for i := range buf {
			buf[i] = 0xFF
		}
		if p.Rank() == 0 {
			received = in
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(received, []byte{1, 2, 3, 4}) {
		t.Errorf("received %v, want [1 2 3 4]; engine must copy send buffers", received)
	}
}

// TestExchangeMultiPort exercises a k=3 round where every processor
// sends to and receives from three partners.
func TestExchangeMultiPort(t *testing.T) {
	const n, k = 7, 3
	e := MustNew(n, Ports(k))
	err := e.Run(func(p *Proc) error {
		me := p.Rank()
		var sends []Send
		var from []int
		for j := 1; j <= k; j++ {
			sends = append(sends, Send{To: (me + j) % n, Data: []byte{byte(me), byte(j)}})
			from = append(from, (me-j+n)%n)
		}
		in, err := p.Exchange(sends, from)
		if err != nil {
			return err
		}
		for j := 1; j <= k; j++ {
			want := []byte{byte((me - j + n) % n), byte(j)}
			if !bytes.Equal(in[j-1], want) {
				return fmt.Errorf("p%d port %d: got %v want %v", me, j, in[j-1], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPortConstraintViolations(t *testing.T) {
	cases := []struct {
		name string
		body func(p *Proc) error
		want string
	}{
		{
			name: "tooManySends",
			body: func(p *Proc) error {
				if p.Rank() == 0 {
					_, err := p.Exchange([]Send{{To: 1}, {To: 2}}, nil)
					return err
				}
				p.Skip()
				return nil
			},
			want: "exceeds k",
		},
		{
			name: "tooManyRecvs",
			body: func(p *Proc) error {
				if p.Rank() == 0 {
					_, err := p.Exchange(nil, []int{1, 2})
					return err
				}
				p.Skip()
				return nil
			},
			want: "exceeds k",
		},
		{
			name: "selfSend",
			body: func(p *Proc) error {
				if p.Rank() == 0 {
					_, err := p.Exchange([]Send{{To: 0}}, nil)
					return err
				}
				p.Skip()
				return nil
			},
			want: "self-send",
		},
		{
			name: "selfRecv",
			body: func(p *Proc) error {
				if p.Rank() == 0 {
					_, err := p.Exchange(nil, []int{0})
					return err
				}
				p.Skip()
				return nil
			},
			want: "self-receive",
		},
		{
			name: "outOfRangeDst",
			body: func(p *Proc) error {
				if p.Rank() == 0 {
					_, err := p.Exchange([]Send{{To: 99}}, nil)
					return err
				}
				p.Skip()
				return nil
			},
			want: "out-of-range",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := MustNew(3, Ports(1), Watchdog(5*time.Second))
			err := e.Run(tc.body)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestDuplicateDstAllowedUnderMultiplePorts: two sends to distinct
// partners is fine with k=2 but a duplicate partner is still rejected.
func TestDuplicateDstRejectedEvenWithPorts(t *testing.T) {
	e := MustNew(4, Ports(2), Watchdog(5*time.Second))
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			_, err := p.Exchange([]Send{{To: 1, Data: []byte{1}}, {To: 1, Data: []byte{2}}}, nil)
			return err
		}
		p.Skip()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate destination") {
		t.Fatalf("err = %v, want duplicate destination", err)
	}
}

// TestRoundMisalignmentDetected: receiver at round 0 gets a message the
// sender issued at its round 1.
func TestRoundMisalignmentDetected(t *testing.T) {
	e := MustNew(2, Watchdog(5*time.Second))
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Skip() // now at round 1
			_, err := p.Exchange([]Send{{To: 1, Data: []byte{7}}}, nil)
			return err
		}
		_, err := p.Exchange(nil, []int{0}) // round 0 receive
		if err != nil {
			return err
		}
		p.Skip()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("err = %v, want misaligned schedule", err)
	}
}

// TestUniformityCheck: participating processors finishing at different
// round counts are reported when validation is on.
func TestUniformityCheck(t *testing.T) {
	e := MustNew(3, Watchdog(5*time.Second))
	err := e.Run(func(p *Proc) error {
		p.Skip()
		if p.Rank() == 2 {
			p.Skip() // one round ahead of the others
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "misaligned schedule") {
		t.Fatalf("err = %v, want misaligned schedule", err)
	}
}

// TestNonParticipantsExemptFromUniformity: processors that never advance
// their round counter (for example processors outside a collective's
// group) do not trip the uniformity check.
func TestNonParticipantsExemptFromUniformity(t *testing.T) {
	e := MustNew(3, Watchdog(5*time.Second))
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return nil // sits the operation out entirely
		}
		other := 3 - p.Rank() // 1 <-> 2
		_, err := p.SendRecv(other, []byte{1}, other)
		return err
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWatchdogDetectsDeadlock(t *testing.T) {
	e := MustNew(2, Watchdog(100*time.Millisecond))
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			// Receive that never gets a matching send.
			_, err := p.Exchange(nil, []int{1})
			return err
		}
		p.Skip()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "p0") {
		t.Errorf("deadlock error %q does not name the stuck processor p0", err)
	}
}

// TestEngineReuse runs twice on one engine, including after a failed
// run, and checks the event log is reset.
func TestEngineReuse(t *testing.T) {
	e := MustNew(2, Watchdog(200*time.Millisecond), Record(true))
	// First run deadlocks and leaves a message in a mailbox.
	_ = e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			_, err := p.Exchange([]Send{{To: 1, Data: []byte{9}}}, nil)
			return err
		}
		time.Sleep(500 * time.Millisecond)
		p.Skip()
		return nil
	})
	// Second run must not observe stale messages.
	err := e.Run(func(p *Proc) error {
		other := 1 - p.Rank()
		in, err := p.SendRecv(other, []byte{byte(p.Rank())}, other)
		if err != nil {
			return err
		}
		if len(in) != 1 || in[0] != byte(other) {
			return fmt.Errorf("p%d got stale message %v", p.Rank(), in)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if events := e.Metrics().Events(); len(events) != 2 || events[0].Round != 0 || events[1].Round != 0 {
		t.Errorf("events after reuse = %+v, want the second run's two round-0 messages (the log must reset)", events)
	}
}

// TestOverlappingRunRejected: a run started while another is in flight
// is rejected with the pinned error and leaves the first untouched; the
// engine admits the next run once the first has returned.
func TestOverlappingRunRejected(t *testing.T) {
	e := MustNew(2)
	entered, release := make(chan struct{}, 2), make(chan struct{})
	first := make(chan error)
	go func() {
		first <- e.Run(func(p *Proc) error {
			entered <- struct{}{}
			<-release
			_, err := p.SendRecv(1-p.Rank(), []byte{byte(p.Rank())}, 1-p.Rank())
			return err
		})
	}()
	<-entered
	err := e.Run(func(p *Proc) error { return nil })
	if want := "mpsim: a run is already in flight on this engine (runs must not overlap)"; err == nil || err.Error() != want {
		t.Errorf("overlapping Run = %v, want %q", err, want)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("the run in flight failed: %v", err)
	}
	if err := e.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatalf("Run after the overlap: %v", err)
	}
}

// TestInlineHoldsTheClaim: a function run Inline holds the engine's
// claim — a run it starts is rejected with the overlap text — an Inline
// call during a run is rejected the same way, the function's error is
// Inline's, the state it keeps is the next call's, and a recording
// engine's Metrics reports nil afterwards. A chan or slot engine builds
// its transport only for its first run.
func TestInlineHoldsTheClaim(t *testing.T) {
	const want = "mpsim: a run is already in flight on this engine (runs must not overlap)"
	e := MustNew(2, Record(true))
	if err := e.Run(func(p *Proc) error { return nil }); err != nil || e.Metrics() == nil {
		t.Fatalf("Run: %v, metrics %v", err, e.Metrics())
	}
	var inner error
	if err := e.Inline(func(state *any, _ *Team) error {
		*state = 7
		inner = e.Run(func(p *Proc) error { return nil })
		return errors.New("fn's own")
	}); err == nil || err.Error() != "fn's own" {
		t.Errorf("Inline returned %v, want fn's error", err)
	}
	if err := e.Inline(func(state *any, _ *Team) error {
		if *state != 7 {
			return fmt.Errorf("state %v, want the 7 the last call kept", *state)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
	if inner == nil || inner.Error() != want {
		t.Errorf("a run inside Inline: %v, want %q", inner, want)
	}
	if e.Metrics() != nil {
		t.Error("Metrics after Inline reports the run before it")
	}
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		done <- e.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				close(entered)
				<-release
			}
			return nil
		})
	}()
	<-entered
	if err := e.Inline(func(*any, *Team) error { return nil }); err == nil || err.Error() != want {
		t.Errorf("Inline during a run: %v, want %q", err, want)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	fresh := MustNew(3, WithTransport(BackendSlot))
	if fresh.Inline(func(*any, *Team) error { return nil }) != nil || fresh.tr != nil {
		t.Errorf("a slot engine built its transport before its first run")
	}
	if fresh.Run(func(p *Proc) error { return nil }) != nil || fresh.tr == nil {
		t.Errorf("the first run found no transport")
	}
}

// TestPlainEngines: only chan and slot engines without recording are
// plain.
func TestPlainEngines(t *testing.T) {
	for _, c := range []struct {
		opts  []Option
		plain bool
	}{
		{nil, true},
		{[]Option{WithTransport(BackendSlot)}, true},
		{[]Option{WithChaos(ChaosConfig{Seed: 1})}, false},
		{[]Option{Record(true)}, false},
	} {
		e := MustNew(4, c.opts...)
		if e.Plain() != c.plain {
			t.Errorf("%v engine (recording %v): Plain() = %v", e.backend, e.record, e.Plain())
		}
	}
}

func TestProcPanicIsReported(t *testing.T) {
	e := MustNew(2, Watchdog(2*time.Second))
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

// TestRankFailureIsPrompt: a rank that returns an error or panics ends
// the run at once, under the default 30 s watchdog — its peers, blocked
// on a message it will never send, used to sit until the watchdog fired
// and the run reported a deadlock in place of the rank's error. The
// engine runs a clean ring shift afterwards on the same workers: the
// failing rank's worker survives its body's error or panic.
func TestRankFailureIsPrompt(t *testing.T) {
	boom := errors.New("boom")
	forEachBackend(t, func(t *testing.T, b Backend) {
		const n = 4
		e := MustNew(n, WithTransport(b))
		for _, fail := range []struct {
			name string
			rank func() error
			ok   func(err error) bool
		}{
			{"error", func() error { return boom }, func(err error) bool { return errors.Is(err, boom) }},
			{"panic", func() error { panic("boom") }, func(err error) bool { return strings.Contains(err.Error(), "panicked") }},
		} {
			start := time.Now()
			err := e.Run(func(p *Proc) error {
				if p.Rank() == 0 {
					return fail.rank()
				}
				_, err := p.Exchange(nil, []int{0})
				return err
			})
			if took := time.Since(start); took > time.Second {
				t.Errorf("%s: the run took %v", fail.name, took)
			}
			if err == nil || !fail.ok(err) || strings.Contains(err.Error(), "deadlock") {
				t.Errorf("%s: err = %v, want the rank's own failure alone", fail.name, err)
			}
			workers := slices.Clone(e.workers)
			err = e.Run(func(p *Proc) error {
				me := p.Rank()
				in, err := p.SendRecv((me+1)%n, []byte{byte(me)}, (me-1+n)%n)
				if err == nil && !bytes.Equal(in, []byte{byte((me - 1 + n) % n)}) {
					err = fmt.Errorf("p%d got %v", me, in)
				}
				return err
			})
			if err != nil {
				t.Errorf("ring shift after the %s: %v", fail.name, err)
			}
			if !slices.Equal(e.workers, workers) {
				t.Errorf("the %s replaced the engine's workers", fail.name)
			}
		}
	})
}

// settledGoroutines returns the goroutine count once collections have
// stopped finalizing engines earlier tests dropped: it changed in none of
// the last five polls.
func settledGoroutines() int {
	n, steady := runtime.NumGoroutine(), 0
	for steady < 5 {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, steady = m, 0
		} else {
			steady++
		}
	}
	return n
}

// TestTeamRun: a Team runs every worker's body once, the caller's as
// worker 0, reuses its parked helpers from one Run to the next, and
// raises a helper's panic again on the caller, after which it still
// runs. Its barrier releases no worker before all have arrived, and the
// last to arrive runs the barrier's function alone, every round.
func TestTeamRun(t *testing.T) {
	e := MustNew(4)
	var ran [4]atomic.Int32
	run := func(w int, body func(int)) {
		if err := e.Inline(func(_ *any, team *Team) error { team.Run(w, body); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	count := func(i int) { ran[i].Add(1) }
	run(4, count)
	started := runtime.NumGoroutine()
	run(3, count)
	run(4, count)
	if got := runtime.NumGoroutine(); got > started {
		t.Errorf("%d goroutines after two more Runs, %d after the first", got, started)
	}
	for i, want := range []int32{3, 3, 3, 2} {
		if got := ran[i].Load(); got != want {
			t.Errorf("worker %d ran %d times, want %d", i, got, want)
		}
	}
	func() {
		defer func() {
			if v := recover(); v != "boom" {
				t.Errorf("the caller recovered %v, want the helper's panic", v)
			}
		}()
		run(2, func(i int) {
			if i == 1 {
				panic("boom")
			}
		})
	}()
	run(4, count)
	if got := ran[3].Load(); got != 3 {
		t.Errorf("after the panic worker 3 ran %d times, want 3", got)
	}

	const w, rounds = 3, 200
	var arrived atomic.Int32
	lasts := 0
	if err := e.Inline(func(_ *any, team *Team) error {
		team.Run(w, func(int) {
			for r := 1; r <= rounds; r++ {
				arrived.Add(1)
				team.Wait(func() {
					if got := arrived.Load(); got != w*int32(r) {
						t.Errorf("round %d: the barrier's function ran with %d arrivals, want %d", r, got, w*r)
					}
					lasts++
				})
				if got := arrived.Load(); got < w*int32(r) {
					t.Errorf("round %d: released with %d arrivals, want %d", r, got, w*r)
				}
			}
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lasts != rounds {
		t.Errorf("the barrier's function ran %d times in %d rounds", lasts, rounds)
	}
}

// TestUnreachableEngineStopsWorkers: the parked workers of an Engine
// nothing references any more exit once the collector finalizes it,
// also when the last run's body referenced the Engine, as a plan's does,
// and so do the helpers of an Inline call whose Team body did.
func TestUnreachableEngineStopsWorkers(t *testing.T) {
	const n = 8
	base := settledGoroutines()
	func() {
		e := MustNew(n)
		if err := e.Run(func(p *Proc) error { _ = e.N(); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := e.Inline(func(state *any, team *Team) error {
			*state = e.N()
			team.Run(3, func(int) { _ = e.N() })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine(); got < base+n+2 {
			t.Fatalf("%d goroutines after a run, want the %d before, %d parked workers and 2 helpers", got, base, n)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after the engine became unreachable, want %d", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestSkippedRoundsDoNotCount: a skipped round advances the round
// counter and sends nothing, so the one exchange is logged in round 1.
// (That C1 leaves such rounds out is TestResultTemplateSemantics' in
// package collective.)
func TestSkippedRoundsDoNotCount(t *testing.T) {
	e := MustNew(2, Record(true))
	err := e.Run(func(p *Proc) error {
		p.Skip()
		other := 1 - p.Rank()
		_, err := p.SendRecv(other, []byte{1}, other)
		if err != nil {
			return err
		}
		p.SkipN(3)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, ev := range e.Metrics().Events() {
		if ev.Round != 1 {
			t.Errorf("event %+v, want round 1 (skipped rounds send nothing)", ev)
		}
	}
	if got := len(e.Metrics().Events()); got != 2 {
		t.Errorf("%d events, want 2", got)
	}
}

func TestSingleProcessorRunIsTrivial(t *testing.T) {
	e := MustNew(1, Record(true))
	ran := false
	if err := e.Run(func(p *Proc) error { ran = true; return nil }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if events := e.Metrics().Events(); events != nil {
		t.Errorf("events = %v, want none", events)
	}
}

func TestSendOnlyAndRecvOnlyRounds(t *testing.T) {
	// p0 sends to p1 (send-only); p1 receives (recv-only).
	e := MustNew(2)
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			_, err := p.Exchange([]Send{{To: 1, Data: []byte("x")}}, nil)
			return err
		}
		in, err := p.Exchange(nil, []int{0})
		if err != nil {
			return err
		}
		if string(in[0]) != "x" {
			return fmt.Errorf("got %q", in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestReceiveOnlyRankPoolIsBounded: a rank that only ever receives is
// handed one transport buffer per message and sends none back; over many
// runs its pool must stay within poolMaxFree instead of hoarding them all
// (the leak grew the heap ~250 KiB per hierarchical concat before the
// bound).
func TestReceiveOnlyRankPoolIsBounded(t *testing.T) {
	e := MustNew(2)
	buf := make([]byte, 64)
	into := [][]byte{make([]byte, 64)}
	for run := 0; run < 1000; run++ {
		err := e.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				return p.ExchangeInto([]Send{{To: 1, Data: buf}}, nil, nil)
			}
			return p.ExchangeInto(nil, []int{0}, into)
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	if got := len(e.pools[1].free); got > poolMaxFree {
		t.Fatalf("receive-only rank holds %d pool buffers after 1000 runs, bound is %d", got, poolMaxFree)
	}
	if got := len(e.pools[1].free); got == 0 {
		t.Fatalf("receive-only rank holds no pool buffers: the bound must not disable pooling")
	}
}

// TestEmptyMessage: a zero-length message is delivered and logged like
// any other.
func TestEmptyMessage(t *testing.T) {
	e := MustNew(2, Record(true))
	err := e.Run(func(p *Proc) error {
		other := 1 - p.Rank()
		in, err := p.SendRecv(other, nil, other)
		if err != nil {
			return err
		}
		if len(in) != 0 {
			return fmt.Errorf("got %d bytes, want 0", len(in))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Event{{Round: 0, Src: 0, Dst: 1}, {Round: 0, Src: 1, Dst: 0}}
	if got := e.Metrics().Events(); !slices.Equal(got, want) {
		t.Errorf("events = %+v, want %+v", got, want)
	}
}
