package mpsim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
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
// checks contents, C1 and C2.
func TestRingShift(t *testing.T) {
	const n = 8
	e := MustNew(n)
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
	m := e.Metrics()
	if c1 := m.Rounds(); c1 != 1 {
		t.Errorf("C1 = %d, want 1", c1)
	}
	wantC2 := len("payload-from-0")
	if c2 := m.DataVolume(); c2 != wantC2 {
		t.Errorf("C2 = %d, want %d", c2, wantC2)
	}
	if msgs := m.Messages(); msgs != n {
		t.Errorf("messages = %d, want %d", msgs, n)
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
	if c1 := e.Metrics().Rounds(); c1 != 1 {
		t.Errorf("C1 = %d, want 1", c1)
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

func TestValidateOffAllowsNonUniform(t *testing.T) {
	e := MustNew(3, Validate(false), Watchdog(5*time.Second))
	err := e.Run(func(p *Proc) error {
		if p.Rank() != 0 {
			p.Skip()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run with Validate(false): %v", err)
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
// run, and checks metrics are reset.
func TestEngineReuse(t *testing.T) {
	e := MustNew(2, Watchdog(200*time.Millisecond))
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
	if c1 := e.Metrics().Rounds(); c1 != 1 {
		t.Errorf("C1 after reuse = %d, want 1 (metrics must reset)", c1)
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

// TestUnreachableEngineStopsWorkers: the parked workers of an Engine
// nothing references any more exit once the collector finalizes it,
// also when the last run's body referenced the Engine, as a plan's does.
func TestUnreachableEngineStopsWorkers(t *testing.T) {
	const n = 8
	base := settledGoroutines()
	func() {
		e := MustNew(n)
		if err := e.Run(func(p *Proc) error { _ = e.N(); return nil }); err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine(); got < base+n {
			t.Fatalf("%d goroutines after a run, want the %d before and %d parked workers", got, base, n)
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

func TestMetricsC2PerRoundMax(t *testing.T) {
	// Round 0: largest message 10 bytes; round 1: largest 3 bytes.
	// C2 must be 13 regardless of smaller concurrent messages.
	e := MustNew(4)
	err := e.Run(func(p *Proc) error {
		me := p.Rank()
		size0 := 2
		if me == 0 {
			size0 = 10
		}
		if _, err := p.SendRecv((me+1)%4, make([]byte, size0), (me+3)%4); err != nil {
			return err
		}
		size1 := 1
		if me == 2 {
			size1 = 3
		}
		_, err := p.SendRecv((me+1)%4, make([]byte, size1), (me+3)%4)
		return err
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := e.Metrics()
	if c2 := m.DataVolume(); c2 != 13 {
		t.Errorf("C2 = %d, want 13", c2)
	}
	if got := m.RoundSizes(); len(got) != 2 || got[0] != 10 || got[1] != 3 {
		t.Errorf("RoundSizes = %v, want [10 3]", got)
	}
	if c1 := m.Rounds(); c1 != 2 {
		t.Errorf("C1 = %d, want 2", c1)
	}
}

// TestSkippedRoundsDoNotCount: rounds where nobody sends are not part
// of C1.
func TestSkippedRoundsDoNotCount(t *testing.T) {
	e := MustNew(2)
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
	if c1 := e.Metrics().Rounds(); c1 != 1 {
		t.Errorf("C1 = %d, want 1 (skipped rounds must not count)", c1)
	}
}

func TestSingleProcessorRunIsTrivial(t *testing.T) {
	e := MustNew(1)
	ran := false
	if err := e.Run(func(p *Proc) error { ran = true; return nil }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if c1 := e.Metrics().Rounds(); c1 != 0 {
		t.Errorf("C1 = %d, want 0", c1)
	}
	if c2 := e.Metrics().DataVolume(); c2 != 0 {
		t.Errorf("C2 = %d, want 0", c2)
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

func TestEmptyMessage(t *testing.T) {
	e := MustNew(2)
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
	if c2 := e.Metrics().DataVolume(); c2 != 0 {
		t.Errorf("C2 = %d, want 0 for empty messages", c2)
	}
}
