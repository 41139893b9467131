package mpsim

// Tests for the transport abstraction and the deadlock-safe engine
// lifecycle: backend-parametrized versions of the core communication
// tests, the post-deadlock fencing regression (run with -race; the CI
// race job exists for these), drain recycling, and the bounded-scan
// buffer pool.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// backends lists every selectable transport; BackendChaos runs with
// its default configuration (chan inner, seed 1), so each lifecycle
// test here — watchdog, deadlock fencing, drain recycling — also
// exercises the chaos wrapper. chaos_test.go covers the slot inner.
var backends = []Backend{BackendChan, BackendSlot, BackendChaos}

func forEachBackend(t *testing.T, f func(t *testing.T, b Backend)) {
	for _, b := range backends {
		t.Run(string(b), func(t *testing.T) { f(t, b) })
	}
}

func TestParseBackend(t *testing.T) {
	for _, b := range backends {
		got, err := ParseBackend(string(b))
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b, got, err)
		}
	}
	if _, err := ParseBackend("carrier-pigeon"); err == nil {
		t.Error("ParseBackend accepted an unknown backend")
	}
	if _, err := New(4, WithTransport(Backend("bogus"))); err == nil {
		t.Error("New accepted an unknown backend")
	}
}

// TestBackendRingShift is TestRingShift on every backend.
func TestBackendRingShift(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		const n = 8
		e := MustNew(n, WithTransport(b))
		if e.Transport() != b {
			t.Fatalf("Transport() = %q, want %q", e.Transport(), b)
		}
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
		if c1 := e.Metrics().Rounds(); c1 != 1 {
			t.Errorf("C1 = %d, want 1", c1)
		}
	})
}

// TestBackendMultiPortSweep runs a multi-round k-port exchange pattern
// on every backend and checks contents, giving the slot ring's
// synchronization a workout across many concurrent pairs.
func TestBackendMultiPortSweep(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		const n, k, rounds = 7, 3, 25
		e := MustNew(n, Ports(k), WithTransport(b))
		err := e.Run(func(p *Proc) error {
			me := p.Rank()
			for r := 0; r < rounds; r++ {
				var sends []Send
				var from []int
				for j := 1; j <= k; j++ {
					sends = append(sends, Send{To: (me + j) % n, Data: []byte{byte(me), byte(j), byte(r)}})
					from = append(from, (me-j+n)%n)
				}
				in, err := p.Exchange(sends, from)
				if err != nil {
					return err
				}
				for j := 1; j <= k; j++ {
					want := []byte{byte((me - j + n) % n), byte(j), byte(r)}
					if !bytes.Equal(in[j-1], want) {
						return fmt.Errorf("p%d round %d port %d: got %v want %v", me, r, j, in[j-1], want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if c1 := e.Metrics().Rounds(); c1 != rounds {
			t.Errorf("C1 = %d, want %d", c1, rounds)
		}
	})
}

// TestBackendWatchdog checks the watchdog fires on every backend (the
// slot backend's waiters must observe the deadline too, not spin the
// run forever).
func TestBackendWatchdog(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		e := MustNew(2, WithTransport(b), Watchdog(100*time.Millisecond))
		err := e.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				_, err := p.Exchange(nil, []int{1})
				return err
			}
			p.Skip()
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("err = %v, want deadlock", err)
		}
	})
}

// TestDeadlockReuseFenced is the lifecycle regression test: a run with
// a deliberately mismatched schedule deadlocks under a short watchdog,
// leaving processor goroutines blocked in sends and receives; the very
// next Run must execute a correct schedule with correct bytes, no
// stale messages, and — under -race — no data race on the buffer
// pools, on every backend. Before the fence existed, the recv-blocked
// zombie could steal the new run's message and the pool was shared
// with the zombie unsynchronized.
func TestDeadlockReuseFenced(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		const n = 4
		e := MustNew(n, WithTransport(b), Watchdog(100*time.Millisecond))
		deadlocks := []func(p *Proc) error{
			// Zombies blocked in Recv: every rank > 0 waits for a message
			// rank 0 never sends.
			func(p *Proc) error {
				if p.Rank() == 0 {
					return nil
				}
				_, err := p.Exchange(nil, []int{0})
				return err
			},
			// Zombie blocked in Send: rank 0 fires send-only rounds at a
			// partner that never receives until the pair is at capacity.
			func(p *Proc) error {
				if p.Rank() != 0 {
					return nil
				}
				for r := 0; r < 4; r++ {
					if _, err := p.Exchange([]Send{{To: 1, Data: []byte{byte(r)}}}, nil); err != nil {
						return err
					}
				}
				return nil
			},
		}
		for round, deadlock := range deadlocks {
			stuck := e.cur // the descriptor the fence orphans
			workers := slices.Clone(e.workers)
			err := e.Run(deadlock)
			if err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("deadlock run %d: err = %v, want deadlock", round, err)
			}

			// Immediate reuse: an all-neighbors exchange with checked
			// payloads. Stale messages (from the zombie sends above) or a
			// stolen receive would fail the content check or the round
			// validation; pool races are the -race job's concern.
			for rep := 0; rep < 3; rep++ {
				err := e.Run(func(p *Proc) error {
					me := p.Rank()
					for r := 0; r < 5; r++ {
						payload := []byte{byte(me), byte(r), byte(rep)}
						in, err := p.SendRecv((me+1)%n, payload, (me-1+n)%n)
						if err != nil {
							return err
						}
						want := []byte{byte((me - 1 + n) % n), byte(r), byte(rep)}
						if !bytes.Equal(in, want) {
							return fmt.Errorf("p%d round %d: got %v, want %v (stale or stolen message)", me, r, in, want)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("reuse after deadlock %d rep %d: %v", round, rep, err)
				}
			}

			// The runs after the fence started workers of their own.
			for i, w := range e.workers {
				if w == nil || w == workers[i] {
					t.Fatalf("deadlock run %d: rank %d ran the reuse on the fenced run's worker", round, i)
				}
			}

			// The abandoned transport must wake the zombies so they exit
			// rather than leak for the life of the process.
			deadline := time.Now().Add(5 * time.Second)
			for stuck.live.Load() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("deadlock run %d: %d zombie goroutines still alive after fence", round, stuck.live.Load())
				}
				time.Sleep(time.Millisecond)
			}
		}
	})
}

// TestReuseAfterValidationError: a run that fails with a schedule
// error (all goroutines exit, but undelivered messages remain in the
// transport) must not poison later runs, on every backend.
func TestReuseAfterValidationError(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		e := MustNew(2, WithTransport(b), Watchdog(5*time.Second))
		// p0 skips a round and then sends, so p1's round-0 receive gets a
		// round-1 message: validation fails on p1, p0's message to the
		// *next* round... both exit, mailbox p1<-p0 may hold residue.
		err := e.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				p.Skip()
				_, err := p.Exchange([]Send{{To: 1, Data: []byte{7}}}, nil)
				return err
			}
			_, err := p.Exchange(nil, []int{0})
			if err != nil {
				return err
			}
			p.Skip()
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "misaligned") {
			t.Fatalf("err = %v, want misaligned schedule", err)
		}
		for rep := 0; rep < 2; rep++ {
			err := e.Run(func(p *Proc) error {
				other := 1 - p.Rank()
				in, err := p.SendRecv(other, []byte{byte(10 + p.Rank()), byte(rep)}, other)
				if err != nil {
					return err
				}
				if !bytes.Equal(in, []byte{byte(10 + other), byte(rep)}) {
					return fmt.Errorf("p%d got %v (stale residue?)", p.Rank(), in)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("reuse rep %d: %v", rep, err)
			}
		}
	})
}

// TestDrainRecyclesResidue: undelivered payload buffers of a previous
// run must return to the destination's pool at the next Run, not leak.
// That Run leaves the residue's pair alone, so only the run after it
// would receive a message the drain missed.
func TestDrainRecyclesResidue(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		const n = 3
		e := MustNew(n, WithTransport(b), Watchdog(5*time.Second))
		// p0 sends one 64-byte message p1 never receives; the others skip
		// to stay round-aligned, so the run *succeeds* with residue.
		err := e.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				_, err := p.Exchange([]Send{{To: 1, Data: make([]byte, 64)}}, nil)
				return err
			}
			p.Skip()
			return nil
		})
		if err != nil {
			t.Fatalf("residue run: %v", err)
		}
		if got := len(e.pools[1].free); got != 0 {
			t.Fatalf("p1 pool has %d buffers before drain, want 0", got)
		}
		// The clean run: p0 and p2 swap a byte while p1 sits out.
		err = e.Run(func(p *Proc) error {
			if p.Rank() == 1 {
				return nil
			}
			other := 2 - p.Rank()
			in, err := p.SendRecv(other, []byte{byte(p.Rank())}, other)
			if err == nil && !bytes.Equal(in, []byte{byte(other)}) {
				err = fmt.Errorf("p%d got %v", p.Rank(), in)
			}
			return err
		})
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		free := e.pools[1].free
		if len(free) != 1 || cap(free[0]) < 64 {
			t.Fatalf("p1 pool after the clean run = %d buffers (cap %v), want the recycled 64-byte payload",
				len(free), caps(free))
		}
		// The check run: a ring in which p1 receives from p0.
		err = e.Run(func(p *Proc) error {
			me := p.Rank()
			in, err := p.SendRecv((me+1)%n, []byte{byte(me)}, (me-1+n)%n)
			if err == nil && !bytes.Equal(in, []byte{byte((me - 1 + n) % n)}) {
				err = fmt.Errorf("p%d got %v", me, in)
			}
			return err
		})
		if err != nil {
			t.Fatalf("check run: %v", err)
		}
	})
}

// TestChanAbandonedFailsBlockingOps: the chan transport tries a send or
// receive without waiting first, and once abandoned it still fails one
// that would block — a send to a full mailbox, a receive from an empty
// one — with errAbandoned.
func TestChanAbandonedFailsBlockingOps(t *testing.T) {
	tr := newChanTransport(2)
	for i := 0; i < mailboxDepth; i++ {
		if err := tr.Send(0, 1, message{}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Abandon()
	if err := tr.Send(0, 1, message{}); !errors.Is(err, errAbandoned) {
		t.Errorf("Send to a full mailbox = %v, want errAbandoned", err)
	}
	if _, err := tr.Recv(0, 1); !errors.Is(err, errAbandoned) {
		t.Errorf("Recv from an empty mailbox = %v, want errAbandoned", err)
	}
}

func caps(bufs [][]byte) []int {
	out := make([]int, len(bufs))
	for i, b := range bufs {
		out[i] = cap(b)
	}
	return out
}

// TestPoolScanFindsBuriedBuffer pins the AcquireBuf fix: a fitting
// buffer below a smaller, newer one must be found (the old pop-newest
// policy dropped the small buffer and allocated every time). The
// AllocsPerRun guard locks in zero steady-state allocations for the
// mixed-size release order the circulant last round produces.
func TestPoolScanFindsBuriedBuffer(t *testing.T) {
	pl := new(bufPool)
	pl.put(make([]byte, 256))
	pl.put(make([]byte, 8)) // newer and smaller: buries the 256-byte buffer
	allocs := testing.AllocsPerRun(100, func() {
		big := pl.get(256)
		small := pl.get(8)
		pl.put(big)
		pl.put(small)
	})
	if allocs != 0 {
		t.Errorf("mixed-size pool cycle allocates %.1f/op, want 0 (bounded scan must find the buried buffer)", allocs)
	}
}

// TestPoolConvergesOnMiss: when nothing within the scan depth fits, the
// pool drops the newest entry so it cannot grow without bound.
func TestPoolConvergesOnMiss(t *testing.T) {
	pl := new(bufPool)
	for i := 0; i < poolScanDepth+2; i++ {
		pl.put(make([]byte, 4))
	}
	before := len(pl.free)
	b := pl.get(1024)
	if len(b) != 1024 {
		t.Fatalf("get(1024) returned len %d", len(b))
	}
	if len(pl.free) != before-1 {
		t.Errorf("pool kept %d entries after a miss, want %d (drop newest)", len(pl.free), before-1)
	}
}

// TestMixedSizeRoundsSteadyState runs circulant-style mixed-size rounds
// (large and small payloads released in small-on-top order) on a warmed
// engine and checks the per-run allocation count does not scale with
// the round count — the thrash the bounded scan eliminates.
func TestMixedSizeRoundsSteadyState(t *testing.T) {
	const n, k = 3, 2
	const big, small = 256, 8
	body := func(rounds int) func(p *Proc) error {
		return func(p *Proc) error {
			me := p.Rank()
			intoBig := make([]byte, big)
			intoSmall := make([]byte, small)
			bigOut := make([]byte, big)
			smallOut := make([]byte, small)
			for r := 0; r < rounds; r++ {
				sends := []Send{
					{To: (me + 1) % n, Data: bigOut},
					{To: (me + 2) % n, Data: smallOut},
				}
				// Receive the big message first so releases stack the
				// small buffer on top of the big one.
				from := []int{(me - 1 + n) % n, (me - 2 + n) % n}
				if err := p.ExchangeInto(sends, from, [][]byte{intoBig, intoSmall}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	e := MustNew(n, Ports(k))
	for i := 0; i < 3; i++ { // warm the pools
		if err := e.Run(body(10)); err != nil {
			t.Fatal(err)
		}
	}
	perRun := func(rounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := e.Run(body(rounds)); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := perRun(2), perRun(42)
	// The 40 extra rounds move 6 messages each; without the bounded scan
	// every big send allocates (~120 extra allocs). Allow generous noise
	// from the runtime while still catching the thrash.
	if long > short+40 {
		t.Errorf("42-round run allocates %.0f vs %.0f for 2 rounds; pool is thrashing on mixed sizes", long, short)
	}
}
