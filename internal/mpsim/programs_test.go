package mpsim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunProgramsDisjointMetrics runs two independent programs with
// different round counts in one engine run and checks each records into
// its own Metrics, including that the per-program uniformity check does
// not confuse the two round structures.
func TestRunProgramsDisjointMetrics(t *testing.T) {
	e := MustNew(4, Watchdog(5*time.Second))
	// Program A (ranks 0,1): one exchange round.
	// Program B (ranks 2,3): two exchange rounds.
	pair := func(a, b int, rounds, size int) Program {
		return Program{
			Members: []int{a, b},
			Body: func(p *Proc) error {
				other := a + b - p.Rank()
				for i := 0; i < rounds; i++ {
					if _, err := p.SendRecv(other, make([]byte, size), other); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	ms, err := e.RunPrograms([]Program{pair(0, 1, 1, 8), pair(2, 3, 2, 3)})
	if err != nil {
		t.Fatalf("RunPrograms: %v", err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d metrics, want 2", len(ms))
	}
	if c1 := ms[0].Rounds(); c1 != 1 {
		t.Errorf("program 0 C1 = %d, want 1", c1)
	}
	if c1 := ms[1].Rounds(); c1 != 2 {
		t.Errorf("program 1 C1 = %d, want 2", c1)
	}
	if c2 := ms[0].DataVolume(); c2 != 8 {
		t.Errorf("program 0 C2 = %d, want 8", c2)
	}
	if c2 := ms[1].DataVolume(); c2 != 6 {
		t.Errorf("program 1 C2 = %d, want 6", c2)
	}
	if got := ms[0].Messages(); got != 2 {
		t.Errorf("program 0 messages = %d, want 2", got)
	}
	if e.Metrics() != nil {
		t.Error("Engine.Metrics() after a multi-program run must be nil")
	}
}

// TestRunProgramsValidation covers the member-set rules: overlap, out of
// range, empty member list, missing body, nil Members alongside others.
func TestRunProgramsValidation(t *testing.T) {
	e := MustNew(4, Watchdog(2*time.Second))
	noop := func(p *Proc) error { return nil }
	for name, progs := range map[string][]Program{
		"empty":        {},
		"no-body":      {{Members: []int{0}}},
		"no-members":   {{Members: []int{}, Body: noop}},
		"overlap":      {{Members: []int{0, 1}, Body: noop}, {Members: []int{1, 2}, Body: noop}},
		"out-of-range": {{Members: []int{0, 7}, Body: noop}},
		"nil-members-multi": {
			{Members: nil, Body: noop},
			{Members: []int{3}, Body: noop},
		},
	} {
		if _, err := e.RunPrograms(progs); err == nil {
			t.Errorf("%s: RunPrograms accepted invalid programs", name)
		}
	}
	// The engine stays usable after rejected program sets.
	if err := e.Run(noop); err != nil {
		t.Fatalf("Run after rejected RunPrograms: %v", err)
	}
}

// TestRunProgramsIdleRanks leaves ranks unclaimed: they run no body and
// the run still completes and validates.
func TestRunProgramsIdleRanks(t *testing.T) {
	e := MustNew(6, Watchdog(5*time.Second))
	ms, err := e.RunPrograms([]Program{{
		Members: []int{1, 4},
		Body: func(p *Proc) error {
			other := 5 - p.Rank()
			_, err := p.SendRecv(other, []byte{byte(p.Rank())}, other)
			return err
		},
	}})
	if err != nil {
		t.Fatalf("RunPrograms: %v", err)
	}
	if c1 := ms[0].Rounds(); c1 != 1 {
		t.Errorf("C1 = %d, want 1", c1)
	}
	if e.Metrics() != ms[0] {
		t.Error("Engine.Metrics() after a single-program run must return that program's metrics")
	}
}

// TestRunProgramsDeadlockFencesAll: a deadlock in one program fails the
// whole run with the stuck processor named, and the engine recovers for
// the next run.
func TestRunProgramsDeadlockFencesAll(t *testing.T) {
	e := MustNew(4, Watchdog(150*time.Millisecond))
	_, err := e.RunPrograms([]Program{
		{Members: []int{0, 1}, Body: func(p *Proc) error {
			other := 1 - p.Rank()
			_, err := p.SendRecv(other, []byte{1}, other)
			return err
		}},
		{Members: []int{2}, Body: func(p *Proc) error {
			_, err := p.Exchange(nil, []int{3}) // rank 3 idles: never satisfied
			return err
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "p2") {
		t.Errorf("deadlock error %q does not name the stuck processor p2", err)
	}
	ms, err := e.RunPrograms([]Program{{Members: []int{0, 1}, Body: func(p *Proc) error {
		other := 1 - p.Rank()
		in, err := p.SendRecv(other, []byte{byte(10 + p.Rank())}, other)
		if err != nil {
			return err
		}
		if len(in) != 1 || in[0] != byte(10+other) {
			t.Errorf("p%d got stale message %v", p.Rank(), in)
		}
		return nil
	}}})
	if err != nil {
		t.Fatalf("RunPrograms after deadlock: %v", err)
	}
	if c1 := ms[0].Rounds(); c1 != 1 {
		t.Errorf("C1 after fence = %d, want 1", c1)
	}
}

// TestRunProgramsFailureEndsAll: a rank error in one program ends the
// whole run at once — the programs share the transport — with that
// error and not the blocked program's wake-up, under the default 30 s
// watchdog.
func TestRunProgramsFailureEndsAll(t *testing.T) {
	boom := errors.New("boom")
	forEachBackend(t, func(t *testing.T, b Backend) {
		e := MustNew(4, WithTransport(b))
		start := time.Now()
		_, err := e.RunPrograms([]Program{
			{Members: []int{0, 1}, Body: func(p *Proc) error { return boom }},
			{Members: []int{2}, Body: func(p *Proc) error {
				_, err := p.Exchange(nil, []int{3}) // rank 3 idles: never satisfied
				return err
			}},
		})
		if took := time.Since(start); took > time.Second {
			t.Errorf("the run took %v", took)
		}
		if !errors.Is(err, boom) || strings.Contains(err.Error(), "abandoned") {
			t.Errorf("err = %v, want boom alone", err)
		}
		if _, err := e.RunPrograms([]Program{{Members: []int{2, 3}, Body: func(p *Proc) error {
			_, err := p.SendRecv(5-p.Rank(), []byte{1}, 5-p.Rank())
			return err
		}}}); err != nil {
			t.Errorf("RunPrograms after the failure: %v", err)
		}
	})
}

// TestRunProgramsPerProgramUniformity: a misaligned schedule inside one
// program is reported and attributed to that program.
func TestRunProgramsPerProgramUniformity(t *testing.T) {
	e := MustNew(4, Watchdog(2*time.Second))
	_, err := e.RunPrograms([]Program{
		{Members: []int{0, 1}, Body: func(p *Proc) error { p.Skip(); return nil }},
		{Members: []int{2, 3}, Body: func(p *Proc) error {
			if p.Rank() == 2 {
				p.Skip()
			} else {
				p.Skip()
				p.Skip()
			}
			return nil
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("err = %v, want misaligned-schedule error", err)
	}
	if !strings.Contains(err.Error(), "program 1") {
		t.Errorf("error %q does not attribute the misalignment to program 1", err)
	}
}
