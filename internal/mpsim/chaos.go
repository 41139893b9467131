package mpsim

// The chaos transport is the adversarial-timing backend: it wraps the
// channel transport and perturbs *when* messages move without ever
// touching *what* moves. The paper's correctness
// claims are about schedules — which block reaches which partner in
// which round — and those schedules are transport-agnostic, so every
// collective must stay byte-identical under arbitrary timing. The
// chaos backend makes that property testable: seeded per-link latency
// jitter scrambles the interleaving of same-round messages across
// links, and designated straggler processors simulate the slow node
// every real cluster has. Only simulator wall-clock changes; payloads,
// rounds, partners and recorded events must not.
//
// Per-pair FIFO order is part of the Transport contract (receivers
// match messages to rounds, and a swapped pair would trip the
// round-alignment check as a genuine schedule violation), so the chaos
// backend reorders the interleaving *across* links — by delaying each
// link independently — never within one.

import (
	"fmt"
	"sync"
	"time"
)

// Chaos defaults.
const (
	// DefaultChaosMaxDelay is the injected per-message latency cap when
	// ChaosConfig.MaxDelay is zero: large enough to scramble cross-link
	// ordering, small enough that full test sweeps stay fast.
	DefaultChaosMaxDelay = 100 * time.Microsecond

	// DefaultStragglerFactor multiplies the delays of straggler ranks
	// when ChaosConfig.StragglerFactor is zero.
	DefaultStragglerFactor = 8
)

// ChaosConfig configures the chaos transport installed by WithChaos.
// The zero value is valid: seed 1, the default delay cap, no
// stragglers.
type ChaosConfig struct {
	// Seed drives the deterministic jitter generator. The injected
	// delay of the i-th message on each directed link is a pure
	// function of (Seed, link, i), so two runs of the same schedule
	// with the same seed inject identical delays and report identical
	// ChaosStats. Zero means 1.
	Seed uint64

	// MaxDelay caps the injected per-message latency (the jitter for
	// one message is uniform in [0, MaxDelay)). Zero selects
	// DefaultChaosMaxDelay; negative disables jitter entirely (the
	// chaos transport then only exercises the wrapping itself).
	MaxDelay time.Duration

	// Stragglers lists processor ranks whose every send and receive is
	// slowed by StragglerFactor, simulating persistently slow nodes.
	Stragglers []int

	// StragglerFactor multiplies straggler delays; zero selects
	// DefaultStragglerFactor. A negative factor is rejected: it would
	// make every straggler delay negative, so the "slow" ranks would be
	// the only undelayed ones.
	StragglerFactor int
}

// normalize fills in the defaults.
func (c ChaosConfig) normalize() ChaosConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = DefaultChaosMaxDelay
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = DefaultStragglerFactor
	}
	return c
}

// validate checks the configuration against an n-processor engine.
func (c ChaosConfig) validate(n int) error {
	if c.StragglerFactor < 0 {
		return fmt.Errorf("mpsim: chaos straggler factor %d, want >= 0", c.StragglerFactor)
	}
	for _, r := range c.Stragglers {
		if r < 0 || r >= n {
			return fmt.Errorf("mpsim: chaos straggler rank %d out of range [0,%d)", r, n)
		}
	}
	return nil
}

// ChaosStats summarizes the delays a chaos transport injected since it
// was created (cumulative across runs; the engine installs a fresh
// transport after a deadlock fence, which resets them). All fields are
// pure functions of (seed, executed schedules), so identical runs with
// identical seeds report identical stats — the determinism test pins
// this.
type ChaosStats struct {
	// SendDelays / RecvDelays count injected pauses on the two sides.
	SendDelays, RecvDelays int64
	// SendInjected / RecvInjected total the injected latency.
	SendInjected, RecvInjected time.Duration
}

// Injected returns the total injected latency over both sides.
func (s ChaosStats) Injected() time.Duration { return s.SendInjected + s.RecvInjected }

// chaosLink is the per-directed-link jitter state of one side. Each
// link side is touched by exactly one goroutine (the Transport contract
// gives every ordered pair a single sender and a single receiver), so
// plain counters suffice.
type chaosLink struct {
	count    uint64 // messages so far on this link side (jitter index)
	delays   int64  // messages that drew a positive delay
	injected int64  // total injected delay, ns
}

// Jitter streams: send-side and recv-side delays are drawn from
// disjoint substreams so delaying one side never shifts the other.
const (
	chaosSendStream = 0x5eed_0001
	chaosRecvStream = 0x5eed_0002
)

// chaosTransport wraps a channel transport and injects seeded latency.
type chaosTransport struct {
	inner     *chanTransport
	n         int
	seed      uint64
	maxDelay  int64 // ns; <= 0 disables jitter
	factor    int64
	straggler []bool

	// send[src*n+dst] is written only by src's goroutine;
	// recv[dst*n+src] only by dst's. The engine reads them via Stats
	// only between runs.
	send, recv []chaosLink

	// abandoned interrupts pauses in flight, so Abandon wakes not only
	// processors blocked in the inner transport but also ones sleeping
	// in an injected delay.
	abandoned chan struct{}
	abandon   sync.Once
}

func newChaosTransport(n int, cfg ChaosConfig) (*chaosTransport, error) {
	cfg = cfg.normalize()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	t := &chaosTransport{
		inner:     newChanTransport(n),
		n:         n,
		seed:      cfg.Seed,
		maxDelay:  int64(cfg.MaxDelay),
		factor:    int64(cfg.StragglerFactor),
		straggler: make([]bool, n),
		send:      make([]chaosLink, n*n),
		recv:      make([]chaosLink, n*n),
		abandoned: make(chan struct{}),
	}
	for _, r := range cfg.Stragglers {
		t.straggler[r] = true
	}
	return t, nil
}

// splitmix64 is the SplitMix64 output function: a fast, well-mixed
// 64-bit hash used to derive each message's delay from (seed, stream,
// link, index) without any shared generator state (a shared generator
// would make the delay sequence depend on goroutine interleaving and
// break seed determinism).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// delay computes the injected latency of message i on directed link
// (a, b) of the given stream: uniform in [0, maxDelay), multiplied by
// the straggler factor when either endpoint owner is a straggler
// (slow denotes the rank whose goroutine performs the operation).
func (t *chaosTransport) delay(stream uint64, a, b int, i uint64, slow int) time.Duration {
	if t.maxDelay <= 0 {
		return 0
	}
	h := splitmix64(t.seed ^ splitmix64(stream^uint64(a)<<40^uint64(b)<<20^i))
	d := int64(h % uint64(t.maxDelay))
	if t.straggler[slow] {
		d *= t.factor
	}
	return time.Duration(d)
}

// pause sleeps for d, waking early with errAbandoned if the transport
// is abandoned — a processor dozing in an injected delay must exit as
// promptly as one blocked in the inner transport.
func (t *chaosTransport) pause(d time.Duration) error {
	if d <= 0 {
		select {
		case <-t.abandoned:
			return errAbandoned
		default:
			return nil
		}
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

func (t *chaosTransport) Send(src, dst int, m message) error {
	l := &t.send[src*t.n+dst]
	d := t.delay(chaosSendStream, src, dst, l.count, src)
	l.count++
	if d > 0 {
		l.delays++
		l.injected += int64(d)
	}
	if err := t.pause(d); err != nil {
		return err
	}
	return t.inner.Send(src, dst, m)
}

func (t *chaosTransport) Recv(dst, src int) (message, error) {
	l := &t.recv[dst*t.n+src]
	d := t.delay(chaosRecvStream, dst, src, l.count, dst)
	l.count++
	if d > 0 {
		l.delays++
		l.injected += int64(d)
	}
	if err := t.pause(d); err != nil {
		return message{}, err
	}
	return t.inner.Recv(dst, src)
}

// Drain delegates to the inner transport: the chaos layer holds no
// messages of its own (a sender pausing before inner.Send still owns
// its message), so all undelivered residue lives inside.
func (t *chaosTransport) Drain(recycle func(dst int, data []byte)) {
	t.inner.Drain(recycle)
}

// Abandon wakes processors sleeping in injected delays as well as ones
// blocked in the inner transport. Idempotent, like the inner Abandon.
func (t *chaosTransport) Abandon() {
	t.abandon.Do(func() { close(t.abandoned) })
	t.inner.Abandon()
}

// Stats totals the injected delays. Only call between runs (the
// engine's ChaosStats does): during a run the link counters are owned
// by the processor goroutines.
func (t *chaosTransport) Stats() ChaosStats {
	var s ChaosStats
	for i := range t.send {
		s.SendDelays += t.send[i].delays
		s.SendInjected += time.Duration(t.send[i].injected)
	}
	for i := range t.recv {
		s.RecvDelays += t.recv[i].delays
		s.RecvInjected += time.Duration(t.recv[i].injected)
	}
	return s
}
