package mpsim

// Tests for the chaos transport: configuration validation, seed
// determinism of the jitter injector, straggler accounting, and the
// deadlock-fencing lifecycle on the slot inner backend (the chan inner
// is covered by the backend-parametrized lifecycle tests in
// transport_test.go via the backends list).

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// chaosInners parametrizes chaos tests over both wrapped backends.
var chaosInners = []Backend{BackendChan, BackendSlot}

func TestChaosConfigValidation(t *testing.T) {
	if _, err := New(4, WithChaos(ChaosConfig{Inner: BackendChaos})); err == nil {
		t.Error("chaos wrapping itself was accepted")
	}
	if _, err := New(4, WithChaos(ChaosConfig{Inner: Backend("bogus")})); err == nil {
		t.Error("unknown inner backend was accepted")
	}
	if _, err := New(4, WithChaos(ChaosConfig{Stragglers: []int{4}})); err == nil {
		t.Error("out-of-range straggler rank was accepted")
	}
	if _, err := New(4, WithChaos(ChaosConfig{Stragglers: []int{-1}})); err == nil {
		t.Error("negative straggler rank was accepted")
	}
	e, err := New(4, WithChaos(ChaosConfig{}))
	if err != nil {
		t.Fatalf("zero ChaosConfig rejected: %v", err)
	}
	if e.Transport() != BackendChaos {
		t.Errorf("Transport() = %q, want %q", e.Transport(), BackendChaos)
	}
	if ct, ok := e.tr.(*chaosTransport); !ok {
		t.Errorf("transport is %T, want *chaosTransport", e.tr)
	} else if ct.Inner() != BackendChan {
		t.Errorf("default inner = %q, want %q", ct.Inner(), BackendChan)
	}
}

// chaosExchange runs a deterministic multi-round ring pattern on a
// fresh chaos engine and returns the recorded events and stats.
func chaosExchange(t *testing.T, cfg ChaosConfig) ([]Event, ChaosStats) {
	t.Helper()
	const n, rounds = 6, 8
	e := MustNew(n, Record(true), WithChaos(cfg))
	err := e.Run(func(p *Proc) error {
		me := p.Rank()
		for r := 0; r < rounds; r++ {
			payload := []byte{byte(me), byte(r)}
			in, err := p.SendRecv((me+1)%n, payload, (me-1+n)%n)
			if err != nil {
				return err
			}
			if want := []byte{byte((me - 1 + n) % n), byte(r)}; !bytes.Equal(in, want) {
				return fmt.Errorf("p%d round %d: got %v want %v", me, r, in, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	stats, ok := e.ChaosStats()
	if !ok {
		t.Fatal("ChaosStats() reported no chaos transport")
	}
	return e.Metrics().Events(), stats
}

// TestChaosSeedDeterminism pins the jitter injector's determinism: two
// runs of the same schedule with the same seed must produce identical
// event streams AND identical injected-delay statistics — any shared
// generator state or interleaving dependence would diverge the stats.
func TestChaosSeedDeterminism(t *testing.T) {
	for _, inner := range chaosInners {
		t.Run(string(inner), func(t *testing.T) {
			cfg := ChaosConfig{Inner: inner, Seed: 42, Stragglers: []int{1, 4}}
			ev1, st1 := chaosExchange(t, cfg)
			ev2, st2 := chaosExchange(t, cfg)
			if st1 != st2 {
				t.Errorf("same seed, different stats:\n  %+v\n  %+v", st1, st2)
			}
			if len(ev1) != len(ev2) {
				t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
			}
			for i := range ev1 {
				if ev1[i] != ev2[i] {
					t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
				}
			}
			if st1.SendDelays == 0 || st1.RecvDelays == 0 {
				t.Errorf("no delays injected (%+v): the chaos transport is not perturbing anything", st1)
			}

			// A different seed draws a different delay sequence; the totals
			// are sums of hundreds of 64-bit-derived values, so a collision
			// means the seed is being ignored.
			_, st3 := chaosExchange(t, ChaosConfig{Inner: inner, Seed: 43, Stragglers: []int{1, 4}})
			if st1.Injected() == st3.Injected() {
				t.Errorf("seeds 42 and 43 injected identical totals (%v): seed ignored", st1.Injected())
			}
		})
	}
}

// TestChaosStragglerSlowsRank checks straggler delays are actually
// applied: with rank 0 a straggler, total injected latency must exceed
// the same run without stragglers.
func TestChaosStragglerSlowsRank(t *testing.T) {
	_, plain := chaosExchange(t, ChaosConfig{Seed: 7})
	_, slow := chaosExchange(t, ChaosConfig{Seed: 7, Stragglers: []int{0}, StragglerFactor: 16})
	if slow.Injected() <= plain.Injected() {
		t.Errorf("straggler run injected %v, plain run %v: straggler factor not applied",
			slow.Injected(), plain.Injected())
	}
}

// TestChaosSlotInnerDeadlockReuseFenced is the PR 2 lifecycle
// regression on the chaos transport wrapping the slot backend: a
// watchdog-fenced deadlock must abandon the wrapper (waking processors
// sleeping in injected delays as well as ones blocked in the inner
// rings), and the very next runs must be correct on a fresh transport.
// The chan inner runs the same scenario via TestDeadlockReuseFenced.
func TestChaosSlotInnerDeadlockReuseFenced(t *testing.T) {
	const n = 4
	e := MustNew(n,
		WithChaos(ChaosConfig{Inner: BackendSlot, Seed: 3, Stragglers: []int{2}}),
		Watchdog(100*time.Millisecond))
	stuck := e.cur
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return nil
		}
		_, err := p.Exchange(nil, []int{0})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}

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
			t.Fatalf("reuse after deadlock rep %d: %v", rep, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for stuck.live.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d zombie goroutines still alive after fence", stuck.live.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosAbandonWakesSleepers: a processor asleep in a huge injected
// delay (not blocked in the inner transport at all) must still exit
// promptly when the watchdog fences the run — Abandon has to interrupt
// pauses in flight, not just wake inner-transport waiters.
func TestChaosAbandonWakesSleepers(t *testing.T) {
	const n = 2
	e := MustNew(n,
		WithChaos(ChaosConfig{Seed: 9, MaxDelay: time.Hour}),
		Watchdog(100*time.Millisecond))
	start := time.Now()
	stuck := e.cur
	err := e.Run(func(p *Proc) error {
		me := p.Rank()
		_, err := p.SendRecv(1-me, []byte{byte(me)}, 1-me)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want watchdog deadlock (procs asleep in injected delay)", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v to return", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stuck.live.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sleepers still alive after fence: Abandon did not interrupt the pause", stuck.live.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosDisabledJitter: MaxDelay < 0 turns injection off; the run
// must still be correct and the stats empty.
func TestChaosDisabledJitter(t *testing.T) {
	_, stats := chaosExchange(t, ChaosConfig{Seed: 5, MaxDelay: -1})
	if stats != (ChaosStats{}) {
		t.Errorf("disabled jitter still injected: %+v", stats)
	}
}
