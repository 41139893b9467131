package mpsim

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRunProgramsDisjointMetrics runs two independent programs with
// different round counts in one engine run and checks the run's event
// log holds each program's messages in its own rounds, including that
// the per-program uniformity check does not confuse the two round
// structures.
func TestRunProgramsDisjointMetrics(t *testing.T) {
	e := MustNew(4, Watchdog(5*time.Second), Record(true))
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
	if err := e.RunPrograms([]Program{pair(0, 1, 1, 8), pair(2, 3, 2, 3)}); err != nil {
		t.Fatalf("RunPrograms: %v", err)
	}
	want := []Event{
		{Round: 0, Src: 0, Dst: 1, Size: 8}, {Round: 0, Src: 1, Dst: 0, Size: 8},
		{Round: 0, Src: 2, Dst: 3, Size: 3}, {Round: 0, Src: 3, Dst: 2, Size: 3},
		{Round: 1, Src: 2, Dst: 3, Size: 3}, {Round: 1, Src: 3, Dst: 2, Size: 3},
	}
	if got := e.Metrics().Events(); !slices.Equal(got, want) {
		t.Errorf("events = %+v, want %+v", got, want)
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
		if err := e.RunPrograms(progs); err == nil {
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
	e := MustNew(6, Watchdog(5*time.Second), Record(true))
	err := e.RunPrograms([]Program{{
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
	if got := len(e.Metrics().Events()); got != 2 {
		t.Errorf("%d events, want the two members' messages", got)
	}
}

// TestRunProgramsDeadlockFencesAll: a deadlock in one program fails the
// whole run with the stuck processor named, and the engine recovers for
// the next run.
func TestRunProgramsDeadlockFencesAll(t *testing.T) {
	e := MustNew(4, Watchdog(150*time.Millisecond))
	err := e.RunPrograms([]Program{
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
	err = e.RunPrograms([]Program{{Members: []int{0, 1}, Body: func(p *Proc) error {
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
}

// TestRunProgramsFailureEndsAll: a rank error in one program ends the
// whole run at once — the programs share the transport — with that
// error and not the blocked program's wake-up, under the default 30 s
// watchdog.
func TestRunProgramsFailureEndsAll(t *testing.T) {
	boom := errors.New("boom")
	forEachBackend(t, func(t *testing.T, opts ...Option) {
		e := MustNew(4, opts...)
		start := time.Now()
		err := e.RunPrograms([]Program{
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
		if err := e.RunPrograms([]Program{{Members: []int{2, 3}, Body: func(p *Proc) error {
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
	err := e.RunPrograms([]Program{
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
