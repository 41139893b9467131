package mpsim

// Chaos is a seeded delay on the channel transport: every Send and
// Recv pauses before its mailbox operation for a delay drawn from
// (seed, link, message index), and straggler ranks pause longer. It
// changes *when* messages move, never what moves or in which order on
// one pair, so it tests the engine's lifecycle — pools, abandon,
// fencing — under timing a plain run never sees. Why it cannot change a
// Check-clean program's bytes is argued once, in the package
// documentation ("Why timing cannot change the bytes").

import (
	"fmt"
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

// ChaosConfig configures the delay WithChaos puts on the channel
// transport. The zero value is valid: seed 1, the default delay cap, no
// stragglers.
type ChaosConfig struct {
	// Seed drives the deterministic jitter generator. The injected
	// delay of the i-th message on each directed link is a pure
	// function of (Seed, link, i), so two runs of the same schedule
	// with the same seed inject identical delays. Zero means 1.
	Seed uint64

	// MaxDelay caps the injected per-message latency (the jitter for
	// one message is uniform in [0, MaxDelay)). Zero selects
	// DefaultChaosMaxDelay; negative disables jitter entirely (the
	// engine still runs its plans on its own driver).
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

// chaos is the delay New builds once from a ChaosConfig. It is never
// written afterwards, so every transport of the engine, a fenced one's
// zombies included, may read it.
type chaos struct {
	seed     uint64
	maxDelay int64 // ns; <= 0 disables jitter
	factor   int64
	slow     []bool // slow[rank]: rank straggles
}

func newChaos(n int, cfg ChaosConfig) (*chaos, error) {
	cfg = cfg.normalize()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	c := &chaos{seed: cfg.Seed, maxDelay: int64(cfg.MaxDelay), factor: int64(cfg.StragglerFactor), slow: make([]bool, n)}
	for _, r := range cfg.Stragglers {
		c.slow[r] = true
	}
	return c, nil
}

// Jitter streams: send-side and recv-side delays are drawn from
// disjoint substreams so delaying one side never shifts the other.
const (
	chaosSendStream = 0x5eed_0001
	chaosRecvStream = 0x5eed_0002
)

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

// delay is the injected latency of message i on the side of directed
// link (a, b) that rank a's goroutine operates — a sends on (src, dst),
// receives on (dst, src) — of the given stream: uniform in
// [0, maxDelay), multiplied by the straggler factor when a straggles.
func (c *chaos) delay(stream uint64, a, b int, i uint64) time.Duration {
	if c.maxDelay <= 0 {
		return 0
	}
	h := splitmix64(c.seed ^ splitmix64(stream^uint64(a)<<40^uint64(b)<<20^i))
	d := int64(h % uint64(c.maxDelay))
	if c.slow[a] {
		d *= c.factor
	}
	return time.Duration(d)
}
