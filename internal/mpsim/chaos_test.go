package mpsim

// Tests for chaos, the seeded delay on the channel transport:
// configuration, the delay function, the order a link draws its
// delays in, pauses waking on Abandon, and the premise of the package
// documentation's argument that every receive names its source. The
// lifecycle runs in the backend-parametrized tests of transport_test.go,
// whose backends list selects chaos by WithChaos.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestChaosConfigValidation(t *testing.T) {
	if _, err := New(4, WithChaos(ChaosConfig{Stragglers: []int{4}})); err == nil {
		t.Error("out-of-range straggler rank was accepted")
	}
	if _, err := New(4, WithChaos(ChaosConfig{Stragglers: []int{-1}})); err == nil {
		t.Error("negative straggler rank was accepted")
	}
	if _, err := New(4, WithChaos(ChaosConfig{StragglerFactor: -2})); err == nil {
		t.Error("negative straggler factor was accepted")
	}
	e, err := New(4, WithChaos(ChaosConfig{}))
	if err != nil {
		t.Fatalf("zero ChaosConfig rejected: %v", err)
	}
	if c := e.chaos; c == nil || c.seed != 1 || c.maxDelay != int64(DefaultChaosMaxDelay) || c.factor != DefaultStragglerFactor {
		t.Errorf("zero ChaosConfig built %+v, want seed 1 and the defaults", c)
	}
}

// chaosExchange runs a deterministic multi-round ring pattern on a
// fresh chaos engine and returns the recorded events.
func chaosExchange(t *testing.T, cfg ChaosConfig) []Event {
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
	return e.Metrics().Events()
}

// TestChaosSeedDeterminism pins the delay function: the delay of
// message i on a link side is a pure function of (seed, stream, link,
// i), whatever the goroutines' interleaving. The values are those of
// seed 42 with rank 2 straggling (×8), on both streams of two links: a
// change to any of them changes every seeded chaos run.
func TestChaosSeedDeterminism(t *testing.T) {
	c, err := newChaos(4, ChaosConfig{Seed: 42, Stragglers: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		stream uint64
		a, b   int
		want   [4]time.Duration
	}{
		{chaosSendStream, 0, 1, [4]time.Duration{94684, 57288, 23543, 96710}},
		{chaosSendStream, 2, 3, [4]time.Duration{212880, 800, 113360, 415552}},
		{chaosRecvStream, 0, 1, [4]time.Duration{96710, 23543, 57288, 94684}},
		{chaosRecvStream, 2, 3, [4]time.Duration{415552, 113360, 800, 212880}},
	} {
		for i, want := range row.want {
			if got := c.delay(row.stream, row.a, row.b, uint64(i)); got != want {
				t.Errorf("stream %#x link (%d,%d) message %d: delay %v, want %v", row.stream, row.a, row.b, i, got, want)
			}
		}
	}
	other, err := newChaos(4, ChaosConfig{Seed: 43, Stragglers: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if c.delay(chaosSendStream, 0, 1, 0) == other.delay(chaosSendStream, 0, 1, 0) {
		t.Error("seeds 42 and 43 draw the same delay: seed ignored")
	}
	if ev1, ev2 := chaosExchange(t, ChaosConfig{Seed: 42, Stragglers: []int{1, 4}}), chaosExchange(t, ChaosConfig{Seed: 42, Stragglers: []int{1, 4}}); !slices.Equal(ev1, ev2) {
		t.Errorf("same seed, different events:\n  %v\n  %v", ev1, ev2)
	}
}

// TestChaosStragglerSlowsRank: a straggler's own side of each of its
// links pauses StragglerFactor times as long; its peers' sides do not.
func TestChaosStragglerSlowsRank(t *testing.T) {
	plain := must(newChaos(4, ChaosConfig{Seed: 7}))
	slow := must(newChaos(4, ChaosConfig{Seed: 7, Stragglers: []int{0}, StragglerFactor: 16}))
	for i := uint64(0); i < 4; i++ {
		for _, stream := range []uint64{chaosSendStream, chaosRecvStream} {
			if got, want := slow.delay(stream, 0, 1, i), 16*plain.delay(stream, 0, 1, i); got != want {
				t.Errorf("straggler 0, stream %#x, message %d: delay %v, want %v", stream, i, got, want)
			}
			if got, want := slow.delay(stream, 1, 0, i), plain.delay(stream, 1, 0, i); got != want {
				t.Errorf("rank 1 beside straggler 0, stream %#x, message %d: delay %v, want %v", stream, i, got, want)
			}
		}
	}
}

// TestChaosAbandonWakesSleepers: a processor asleep in a huge injected
// delay (not blocked on a mailbox at all) must still exit promptly
// when the watchdog fences the run — Abandon has to interrupt pauses in
// flight, not just wake mailbox waiters.
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

// TestChaosDisabledJitter: MaxDelay < 0 draws no delay, and the run is
// still correct.
func TestChaosDisabledJitter(t *testing.T) {
	c := must(newChaos(6, ChaosConfig{Seed: 5, MaxDelay: -1, Stragglers: []int{0}}))
	for i := uint64(0); i < 8; i++ {
		if d := c.delay(chaosSendStream, 0, 1, i); d != 0 {
			t.Fatalf("disabled jitter drew %v for message %d", d, i)
		}
	}
	if len(chaosExchange(t, ChaosConfig{Seed: 5, MaxDelay: -1})) == 0 {
		t.Error("the run recorded no message")
	}
}

// TestChaosKeepsItsOwnStragglers: WithChaos copies the caller's
// straggler list and New builds the mask once, so a later edit of the
// caller's slice neither changes which ranks straggle nor reaches the
// transport a failed run's successor is built with, where an
// out-of-range rank New never saw would panic.
func TestChaosKeepsItsOwnStragglers(t *testing.T) {
	cfg := ChaosConfig{Seed: 3, Stragglers: []int{1}}
	opt := WithChaos(cfg)
	cfg.Stragglers[0] = 3
	e := MustNew(4, opt)
	cfg.Stragglers[0] = 9
	boom := errors.New("boom")
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return boom
		}
		_, err := p.Exchange(nil, []int{0})
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing run: %v, want rank 0's error", err)
	}
	if err := e.Run(func(p *Proc) error {
		me := p.Rank()
		_, err := p.SendRecv((me+1)%4, []byte{byte(me)}, (me+3)%4)
		return err
	}); err != nil {
		t.Fatalf("the run after it: %v", err)
	}
	if want := []bool{false, true, false, false}; !slices.Equal(e.chaos.slow, want) {
		t.Errorf("stragglers %v, want rank 1 alone", e.chaos.slow)
	}
}

// TestChaosDelaysInMessageOrder pins per-pair FIFO under chaos: each
// link side draws one delay per message, in message order, and the
// pause comes before the mailbox operation, so messages leave and
// arrive in the order sent whatever their delays.
func TestChaosDelaysInMessageOrder(t *testing.T) {
	const n, msgs = 3, 12
	tr := newChanTransport(n, must(newChaos(n, ChaosConfig{Seed: 11, MaxDelay: 50 * time.Microsecond, Stragglers: []int{0}})))
	done := make(chan error, 2)
	for _, src := range []int{0, 2} {
		go func() {
			for i := 0; i < msgs; i++ {
				if err := tr.Send(src, 1, message{round: i}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < msgs; i++ {
		for _, src := range []int{2, 0} {
			m, err := tr.Recv(1, src)
			if err != nil {
				t.Fatal(err)
			}
			if m.round != i {
				t.Fatalf("message %d from p%d arrived as message %d", m.round, src, i)
			}
		}
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for side, count := range tr.sent {
		if want := map[int]uint64{0*n + 1: msgs, 2*n + 1: msgs}[side]; count != want {
			t.Errorf("send side of link (%d,%d) drew %d delays, want %d", side/n, side%n, count, want)
		}
	}
	for side, count := range tr.recvd {
		if want := map[int]uint64{1*n + 0: msgs, 1*n + 2: msgs}[side]; count != want {
			t.Errorf("receive side of link (%d,%d) drew %d delays, want %d", side%n, side/n, count, want)
		}
	}
}

// TestChaosPausesWakeOnAbandon: a Send and a Recv each pause for their
// delay before touching the mailbox — the Recv although a message
// waits — and Abandon wakes both with errAbandoned.
func TestChaosPausesWakeOnAbandon(t *testing.T) {
	c := must(newChaos(2, ChaosConfig{Seed: 9, MaxDelay: time.Hour}))
	for _, d := range []time.Duration{c.delay(chaosSendStream, 0, 1, 0), c.delay(chaosRecvStream, 0, 1, 0)} {
		if d < time.Second {
			t.Fatalf("seed 9 draws %v; pick a seed whose first delays are long", d)
		}
	}
	tr := newChanTransport(2, c)
	tr.mailbox[0][1] <- message{round: 7} // waiting for rank 0 from rank 1
	errs := make(chan error, 2)
	go func() { errs <- tr.Send(0, 1, message{}) }()
	go func() { _, err := tr.Recv(0, 1); errs <- err }()
	select {
	case err := <-errs:
		t.Fatalf("an operation returned %v before its delay", err)
	case <-time.After(20 * time.Millisecond):
	}
	tr.Abandon()
	for range 2 {
		select {
		case err := <-errs:
			if !errors.Is(err, errAbandoned) {
				t.Errorf("a paused operation returned %v, want errAbandoned", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Abandon did not wake a paused operation")
		}
	}
}

// TestReceivesNameTheirSource pins the first premise of the package
// documentation's argument: every receive names its source. The
// Transport interface receives only by Recv(dst, src), each transport
// has no method beyond the interface, and every receiving method of
// Proc takes its sources. A probe or an any-source receive added to
// either must come with a new argument, so it fails here.
func TestReceivesNameTheirSource(t *testing.T) {
	methods := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumMethod(); i++ {
			names = append(names, typ.Method(i).Name)
		}
		return names
	}
	transport := reflect.TypeOf((*Transport)(nil)).Elem()
	if got, want := methods(transport), []string{"Abandon", "Drain", "Recv", "Send"}; !slices.Equal(got, want) {
		t.Errorf("Transport's methods are %v, want %v", got, want)
	}
	if recv, _ := transport.MethodByName("Recv"); recv.Type.String() != "func(int, int) (mpsim.message, error)" {
		t.Errorf("Transport.Recv is %v, want a receive from a named source", recv.Type)
	}
	for _, tr := range []Transport{newChanTransport(2, nil), newSlotTransport(2)} {
		if got := methods(reflect.TypeOf(tr)); !slices.Equal(got, methods(transport)) {
			t.Errorf("%T has methods %v, beyond Transport's", tr, got)
		}
	}
	want := []string{"AcquireBuf", "Exchange", "ExchangeInto", "ExchangeOwned", "N", "Ports", "Rank", "ReleaseBuf", "Round", "SendRecv", "Skip", "SkipN"}
	if got := methods(reflect.TypeOf(&Proc{})); !slices.Equal(got, want) {
		t.Errorf("*Proc's methods are %v, want %v: a new receive must name its sources", got, want)
	}
	for name, sig := range map[string]string{
		"Exchange":      "func(*mpsim.Proc, []mpsim.Send, []int) ([][]uint8, error)",
		"ExchangeInto":  "func(*mpsim.Proc, []mpsim.Send, []int, [][]uint8) error",
		"ExchangeOwned": "func(*mpsim.Proc, []mpsim.Send, []int, [][]uint8, int) error",
		"SendRecv":      "func(*mpsim.Proc, int, []uint8, int) ([]uint8, error)",
	} {
		if m, _ := reflect.TypeOf(&Proc{}).MethodByName(name); m.Type.String() != sig {
			t.Errorf("Proc.%s is %v, want %s", name, m.Type, sig)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
