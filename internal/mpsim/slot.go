package mpsim

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// slotTransport is the shared-memory backend: one single-writer
// single-reader slot ring per ordered processor pair, synchronized with
// two atomic counters and no locks or channels. It stays only because
// the benchmark's mpsim.msg_*.slot probes select it (WithTransport): no
// plain run reaches a transport, and chaos delays chan, so nothing else
// builds one. It goes with those probes.
//
// Pair (src, dst) is written only by processor src's goroutine and read
// only by processor dst's goroutine, so each ring needs no mutual
// exclusion — seq (messages produced) and ack (messages consumed) give
// the two sides a happens-before edge over the slot contents. The ring
// holds slotDepth = 2 messages, the same slack as the channel backend's
// mailboxDepth: a round-aligned sender runs at most one round ahead of
// the matching receiver per pair, and extra capacity only hides
// schedule bugs.
const slotDepth = 2

// Waiting escalates from spinning through yielding to sleeping, so a
// matched pair synchronizes in nanoseconds while a stalled processor
// (skewed schedule, or a genuine deadlock waiting for the watchdog)
// backs off instead of monopolizing a core.
const (
	slotSpin     = 64                    // pure spins before yielding
	slotYield    = 512                   // runtime.Gosched calls before sleeping
	slotNapEvery = 64                    // sleep once per this many yields afterwards
	slotNap      = 50 * time.Microsecond // the sleep length
)

type slotPair struct {
	seq atomic.Uint64 // messages produced on this pair
	ack atomic.Uint64 // messages consumed on this pair
	buf [slotDepth]message

	// Pad each pair to a multiple of the cache line size: counters of
	// different pairs must not share a line, or the single-writer design
	// false-shares across unrelated pairs.
	_ [128 - (16+slotDepth*unsafe.Sizeof(message{}))%128]byte
}

type slotTransport struct {
	n     int
	pairs []slotPair  // pairs[dst*n+src]
	abort atomic.Bool // set by Abandon; wakes all waiters with an error
}

func newSlotTransport(n int) *slotTransport {
	return &slotTransport{n: n, pairs: make([]slotPair, n*n)}
}

func (t *slotTransport) pair(dst, src int) *slotPair { return &t.pairs[dst*t.n+src] }

// wait runs one step of the spin/yield/sleep escalation; i counts the
// failed attempts so far.
func wait(i int) {
	switch {
	case i < slotSpin:
		// busy spin: the partner is usually mid-round on another core
	case i < slotSpin+slotYield:
		runtime.Gosched()
	default:
		if (i-slotSpin-slotYield)%slotNapEvery == 0 {
			time.Sleep(slotNap)
		} else {
			runtime.Gosched()
		}
	}
}

func (t *slotTransport) Send(src, dst int, m message) error {
	p := t.pair(dst, src)
	seq := p.seq.Load()
	for i := 0; seq-p.ack.Load() >= slotDepth; i++ {
		if t.abort.Load() {
			return errAbandoned
		}
		wait(i)
	}
	p.buf[seq%slotDepth] = m
	p.seq.Store(seq + 1)
	return nil
}

func (t *slotTransport) Recv(dst, src int) (message, error) {
	p := t.pair(dst, src)
	ack := p.ack.Load()
	for i := 0; p.seq.Load() == ack; i++ {
		if t.abort.Load() {
			return message{}, errAbandoned
		}
		wait(i)
	}
	m := p.buf[ack%slotDepth]
	p.buf[ack%slotDepth] = message{} // drop the payload reference
	p.ack.Store(ack + 1)
	return m, nil
}

func (t *slotTransport) Drain(recycle func(dst int, data []byte)) {
	for dst := 0; dst < t.n; dst++ {
		for src := 0; src < t.n; src++ {
			p := t.pair(dst, src)
			seq := p.seq.Load()
			for ack := p.ack.Load(); ack < seq; ack++ {
				recycle(dst, p.buf[ack%slotDepth].data)
				p.buf[ack%slotDepth] = message{}
			}
			p.ack.Store(seq)
		}
	}
}

func (t *slotTransport) Abandon() { t.abort.Store(true) }
