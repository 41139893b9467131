package mpsim

import (
	"errors"
	"sync"
	"time"
)

// Backend names a message-transport implementation of the engine.
// The paper's schedules are transport-agnostic — C1 and C2 depend only
// on the round structure — and a plain engine (Engine.Plain) runs every
// plan on the round-major walk without building a transport at all, so
// the one choice callers make is WithChaos. The engine's own driver
// reaches a transport only under chaos or Record, and both run on chan.
type Backend string

const (
	// BackendChan is the channel transport: one buffered Go channel per
	// ordered processor pair. Blocked processors park in the runtime and
	// consume no CPU, so a deadlocked schedule sits cheaply until the
	// watchdog fires. Default, and the one chaos delays.
	BackendChan Backend = "chan"

	// BackendSlot is the shared-memory slot transport (slot.go). It
	// stays only because the benchmark's mpsim.msg_*.slot probes select
	// it through WithTransport; no other caller does.
	BackendSlot Backend = "slot"
)

// errAbandoned is returned by transport operations that were fenced out:
// this transport instance was abandoned when a processor of its run
// failed or the run deadlocked, and the blocked processor belongs to
// that dead run.
var errAbandoned = errors.New("mpsim: run abandoned")

// A Transport moves payload-carrying messages between the processors of
// one engine. Exactly one goroutine (processor src's) calls Send for a
// given (src, dst) pair and exactly one (processor dst's) calls Recv for
// it, so implementations only need single-writer single-reader ordering
// per pair. Drain is called by the engine goroutine between runs, never
// concurrently with Send or Recv (the engine calls it only after a run
// that left messages behind); Abandon may be called during one, by
// the engine or by a failing processor.
type Transport interface {
	// Send delivers m from src to dst, blocking while the pair is at
	// capacity (a sender may run at most one round ahead of the matching
	// receiver, so two in-flight messages per pair always suffice for
	// round-aligned schedules). It returns errAbandoned if the transport
	// was abandoned while blocked.
	Send(src, dst int, m message) error

	// Recv blocks until a message from src addressed to dst is
	// available and returns it, or errAbandoned if the transport was
	// abandoned while blocked.
	Recv(dst, src int) (message, error)

	// Drain removes every undelivered message, calling recycle(dst,
	// data) for each payload so the engine can return the buffer to the
	// destination processor's pool rather than leak the pool's steady
	// state across a failed run.
	Drain(recycle func(dst int, data []byte))

	// Abandon permanently wakes all current and future blocked Sends and
	// Recvs with errAbandoned. A transport is abandoned when a failed
	// processor or a watchdog deadlock leaves processor goroutines
	// blocked in it: they wake, fail, and exit, while the next run
	// proceeds on a fresh transport. Abandon is idempotent and safe to
	// call from several goroutines.
	Abandon()
}

// mailboxDepth is the per-(src,dst) channel buffer. Two slots are
// enough for any round-aligned schedule (a sender may run at most one
// round ahead of the matching receiver per pair); extra capacity only
// hides schedule bugs, so keep it tight.
const mailboxDepth = 2

// chanTransport is the channel backend: mailbox[dst][src] carries
// messages from processor src to processor dst. Per-pair channels keep
// ordering per ordered pair and make receive-from-specific-source
// trivial, mirroring send_and_recv in the paper's pseudocode
// (Appendix A).
type chanTransport struct {
	mailbox [][]chan message

	// abandoned is closed by Abandon so that senders and receivers
	// blocked on a mailbox, or paused by chaos, wake up and fail instead
	// of leaking.
	abandoned chan struct{}
	abandon   sync.Once

	// chaos, nil without WithChaos, pauses every Send and Recv before
	// its mailbox operation. sent[src*n+dst] counts the messages src has
	// sent to dst, recvd[dst*n+src] those dst has received from src:
	// each link side has one goroutine, so plain counters suffice.
	chaos       *chaos
	sent, recvd []uint64
}

func newChanTransport(n int, c *chaos) *chanTransport {
	t := &chanTransport{
		mailbox:   make([][]chan message, n),
		abandoned: make(chan struct{}),
	}
	if c != nil {
		t.chaos, t.sent, t.recvd = c, make([]uint64, n*n), make([]uint64, n*n)
	}
	for dst := range t.mailbox {
		t.mailbox[dst] = make([]chan message, n)
		for src := range t.mailbox[dst] {
			t.mailbox[dst][src] = make(chan message, mailboxDepth)
		}
	}
	return t
}

// Send and Recv try the mailbox alone first, which skips locking both
// channels of the two-case select: in a round-aligned schedule most find
// room or a message waiting. Only one that must block waits on abandoned.
// Under chaos each first pauses for its message's delay.
func (t *chanTransport) Send(src, dst int, m message) error {
	if t.chaos != nil {
		if err := t.pause(chaosSendStream, src, dst, &t.sent[src*len(t.mailbox)+dst]); err != nil {
			return err
		}
	}
	select {
	case t.mailbox[dst][src] <- m:
		return nil
	default:
	}
	select {
	case t.mailbox[dst][src] <- m:
		return nil
	case <-t.abandoned:
		return errAbandoned
	}
}

func (t *chanTransport) Recv(dst, src int) (message, error) {
	if t.chaos != nil {
		if err := t.pause(chaosRecvStream, dst, src, &t.recvd[dst*len(t.mailbox)+src]); err != nil {
			return message{}, err
		}
	}
	select {
	case m := <-t.mailbox[dst][src]:
		return m, nil
	default:
	}
	select {
	case m := <-t.mailbox[dst][src]:
		return m, nil
	case <-t.abandoned:
		return message{}, errAbandoned
	}
}

// pause sleeps for the delay of the next message, the count-th, on
// rank a's side of link (a, b), waking early with errAbandoned if the
// transport is abandoned: a processor dozing in a delay must exit as
// promptly as one blocked on a mailbox.
func (t *chanTransport) pause(stream uint64, a, b int, count *uint64) error {
	d := t.chaos.delay(stream, a, b, *count)
	*count++
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-t.abandoned:
		return errAbandoned
	}
}

func (t *chanTransport) Drain(recycle func(dst int, data []byte)) {
	for dst := range t.mailbox {
		for _, mailbox := range t.mailbox[dst] {
			for len(mailbox) > 0 { // nothing sends while the engine drains
				recycle(dst, (<-mailbox).data)
			}
		}
	}
}

func (t *chanTransport) Abandon() {
	t.abandon.Do(func() { close(t.abandoned) })
}
