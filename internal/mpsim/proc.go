package mpsim

import (
	"fmt"
	"sync/atomic"
)

// Proc is the per-processor handle passed to the SPMD body by
// Engine.Run. All communication a processor performs goes through its
// Proc. A Proc is confined to the goroutine that runs the body; it must
// not be shared. (The round counter and completion flag are atomic only
// so the engine's deadlock watchdog can inspect a stuck processor.)
//
// A Proc holds direct references to the transport, buffer pool and run
// descriptor of the Run that handed it to its worker, plus that Run's
// generation. The engine replaces all three after a deadlocked run, so
// a zombie processor of an abandoned run keeps operating on its own
// orphaned instances and can never race with — or leak a stale message
// into — a later run.
type Proc struct {
	engine *engine
	run    *run              // the descriptor of the Run this Proc belongs to
	body   func(*Proc) error // that Run's program for this rank
	prog   int               // index of that program, -1 if the rank sits the Run out
	tr     Transport         // the transport of that Run
	pool   *bufPool          // this rank's buffer pool of that Run
	gen    uint64            // that Run's generation; stamped on every message
	rank   int
	round  atomic.Int64
	done   atomic.Bool

	shard Metrics // this rank's sends in that Run, merged into its Metrics at join
	recvs int64   // messages this rank received in that Run
}

// Rank returns the processor id, 0 <= rank < n.
func (p *Proc) Rank() int { return p.rank }

// N returns the number of processors in the system.
func (p *Proc) N() int { return p.engine.n }

// Ports returns the port count k of the system.
func (p *Proc) Ports() int { return p.engine.k }

// Round returns the index of the next communication round this processor
// will participate in.
func (p *Proc) Round() int { return int(p.round.Load()) }

// Send describes one outgoing message of a communication round. On the
// copying paths (Exchange, ExchangeInto) the engine copies Data and the
// caller may reuse it; on the ownership-transfer path (ExchangeOwned)
// Data itself travels through the transport and the caller must not
// touch it after the call.
type Send struct {
	To   int    // destination processor rank
	Data []byte // payload
}

// SendRecv performs one communication round in which this processor
// sends data to processor dst and receives one message from processor
// src. It matches the send_and_recv primitive of the paper's pseudocode
// (Appendix A) and of IBM MPL. The returned slice is owned by the
// caller.
func (p *Proc) SendRecv(dst int, data []byte, src int) ([]byte, error) {
	in, err := p.Exchange([]Send{{To: dst, Data: data}}, []int{src})
	if err != nil {
		return nil, err
	}
	return in[0], nil
}

// Exchange performs one k-port communication round: it sends every
// message in sends and receives exactly one message from each processor
// listed in from, returning the received payloads in the same order as
// from. Either list may be empty (a processor may only send, or only
// receive, in a round). The round advances exactly once per call.
//
// Under validation the engine rejects rounds that use more than k ports
// in either direction, send to or receive from this processor itself, or
// address the same partner twice in one round.
func (p *Proc) Exchange(sends []Send, from []int) ([][]byte, error) {
	recvd := make([][]byte, len(from))
	if err := p.exchange(sends, from, nil, recvd, false, 1); err != nil {
		return nil, err
	}
	return recvd, nil
}

// ExchangeInto is Exchange with caller-owned receive buffers: the
// message from from[i] is copied into into[i], whose length must equal
// the incoming message's length exactly (flat schedules know every
// message size in advance; a mismatch is a schedule bug). The consumed
// transport buffer is recycled into the processor-local pool, so a
// steady-state flat collective performs no per-message allocations.
// into may be nil only when from is empty (a send-only round).
func (p *Proc) ExchangeInto(sends []Send, from []int, into [][]byte) error {
	if len(into) != len(from) {
		return fmt.Errorf("mpsim: p%d: ExchangeInto with %d receive buffers for %d sources", p.rank, len(into), len(from))
	}
	return p.exchange(sends, from, into, nil, false, 1)
}

// ExchangeOwned is the pipelined round primitive: one communication
// round that moves payloads by ownership transfer in both directions
// and may multiplex up to lanes logical rounds over the ports.
//
// Each sends[i].Data must be memory obtained from this processor's
// AcquireBuf; it is handed to the transport as the message payload —
// no copy — and must not be touched by the caller afterwards (the
// receiver recycles it into its own pool). Each received payload is
// returned in out by ownership transfer; the caller unpacks it and
// returns it via ReleaseBuf. out must have one slot per source.
//
// lanes widens the validator's port budget to lanes*k sends and
// receives: a segment-pipelined schedule runs up to lanes compiled
// rounds — each individually within the k-port budget — in one merged
// round. Partner distinctness and the self-communication ban still
// hold per merged round; the plan compiler guarantees distinctness by
// clamping the segment count to the schedule's minimum partner-offset
// gap. The round counter advances exactly once, like every exchange.
func (p *Proc) ExchangeOwned(sends []Send, from []int, out [][]byte, lanes int) error {
	if len(out) != len(from) {
		return fmt.Errorf("mpsim: p%d: ExchangeOwned with %d receive slots for %d sources", p.rank, len(out), len(from))
	}
	if lanes < 1 {
		lanes = 1
	}
	return p.exchange(sends, from, nil, out, true, lanes)
}

// exchange is the shared round implementation. Exactly one of into and
// out is non-nil: into receives by copy into caller-owned buffers (the
// transport buffer returns to the pool), out receives by ownership
// transfer of the transport buffer. owned marks sends whose Data is
// already pool memory travelling by ownership transfer; lanes is the
// validator's port-budget multiplier (1 for plain rounds).
func (p *Proc) exchange(sends []Send, from []int, into [][]byte, out [][]byte, owned bool, lanes int) error {
	e := p.engine
	round := int(p.round.Add(1) - 1)

	if e.validate {
		if err := p.validateRound(round, sends, from, lanes); err != nil {
			return err
		}
	}

	for _, s := range sends {
		if s.To < 0 || s.To >= e.n {
			return fmt.Errorf("mpsim: p%d round %d: send to out-of-range rank %d", p.rank, round, s.To)
		}
		payload := s.Data
		if !owned {
			payload = p.AcquireBuf(len(s.Data))
			copy(payload, s.Data)
		}
		p.shard.recordSend(p.rank, s.To, round, len(payload))
		if err := p.tr.Send(p.rank, s.To, message{round: round, gen: p.gen, data: payload}); err != nil {
			return fmt.Errorf("mpsim: p%d round %d: send to p%d: %w", p.rank, round, s.To, err)
		}
	}

	for i, src := range from {
		if src < 0 || src >= e.n {
			return fmt.Errorf("mpsim: p%d round %d: receive from out-of-range rank %d", p.rank, round, src)
		}
		msg, err := p.tr.Recv(p.rank, src)
		if err != nil {
			return fmt.Errorf("mpsim: p%d round %d: receive from p%d: %w", p.rank, round, src, err)
		}
		p.recvs++
		if msg.gen != p.gen {
			// Unreachable when the engine's fencing works: messages of an
			// abandoned run live in an orphaned transport and residue of a
			// completed run is drained before the next starts. Checked
			// unconditionally as a last line of defence.
			return fmt.Errorf("mpsim: p%d round %d: received message from p%d of run generation %d (current %d): stale message leaked across runs",
				p.rank, round, src, msg.gen, p.gen)
		}
		if e.validate && msg.round != round {
			return fmt.Errorf("mpsim: p%d round %d: received message sent by p%d in round %d (misaligned schedule)",
				p.rank, round, src, msg.round)
		}
		if into != nil {
			if len(msg.data) != len(into[i]) {
				return fmt.Errorf("mpsim: p%d round %d: received %d bytes from p%d into a %d-byte buffer",
					p.rank, round, len(msg.data), src, len(into[i]))
			}
			copy(into[i], msg.data)
			p.ReleaseBuf(msg.data)
		} else {
			out[i] = msg.data
		}
	}
	return nil
}

// AcquireBuf returns a length-n scratch buffer from the processor-local
// buffer pool, allocating only when none of the poolScanDepth newest
// pooled buffers has sufficient capacity. The contents are undefined.
// The pool is owned by this processor's goroutine; buffers cycle
// sender -> transport -> receiver -> receiver's pool, which is safe
// because the transport's delivery orders the receiver's reuse after
// the sender's last write.
func (p *Proc) AcquireBuf(n int) []byte {
	return p.pool.get(n)
}

// ReleaseBuf returns a buffer obtained from AcquireBuf (or a payload
// slice this processor owns) to the processor-local pool. The caller
// must not use b afterwards.
func (p *Proc) ReleaseBuf(b []byte) {
	p.pool.put(b)
}

// Skip advances this processor's round counter without communicating.
// Processors that sit out a round of an algorithm (for example leaves of
// a binomial tree after their data is consumed) call Skip to stay
// aligned with the global round structure.
func (p *Proc) Skip() { p.round.Add(1) }

// SkipN advances the round counter by rounds.
func (p *Proc) SkipN(rounds int) { p.round.Add(int64(rounds)) }

// validateRound enforces the k-port model for one round: at most
// lanes*k sends and lanes*k receives (lanes is 1 except for merged
// pipelined rounds, which multiplex that many compiled rounds over the
// ports), distinct partners, and no self-communication. Duplicate
// detection is a quadratic scan rather than a map: k is small in
// practice and the scan keeps the validated hot path allocation-free.
func (p *Proc) validateRound(round int, sends []Send, from []int, lanes int) error {
	e := p.engine
	budget := lanes * e.k
	if len(sends) > budget {
		return fmt.Errorf("mpsim: p%d round %d: %d sends exceeds k = %d ports (%d lanes)", p.rank, round, len(sends), e.k, lanes)
	}
	if len(from) > budget {
		return fmt.Errorf("mpsim: p%d round %d: %d receives exceeds k = %d ports (%d lanes)", p.rank, round, len(from), e.k, lanes)
	}
	for i, s := range sends {
		if s.To == p.rank {
			return fmt.Errorf("mpsim: p%d round %d: self-send", p.rank, round)
		}
		for j := 0; j < i; j++ {
			if sends[j].To == s.To {
				return fmt.Errorf("mpsim: p%d round %d: duplicate destination %d in one round", p.rank, round, s.To)
			}
		}
	}
	for i, src := range from {
		if src == p.rank {
			return fmt.Errorf("mpsim: p%d round %d: self-receive", p.rank, round)
		}
		for j := 0; j < i; j++ {
			if from[j] == src {
				return fmt.Errorf("mpsim: p%d round %d: duplicate source %d in one round", p.rank, round, src)
			}
		}
	}
	return nil
}
