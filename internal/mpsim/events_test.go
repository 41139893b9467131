package mpsim

import "testing"

func TestEventsRecorded(t *testing.T) {
	const n = 4
	e := MustNew(n, Record(true))
	err := e.Run(func(p *Proc) error {
		me := p.Rank()
		_, err := p.SendRecv((me+1)%n, make([]byte, me+1), (me-1+n)%n)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	events := e.Metrics().Events()
	if len(events) != n {
		t.Fatalf("got %d events, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Round != 0 {
			t.Errorf("event %d round = %d, want 0", i, ev.Round)
		}
		if ev.Src != i {
			t.Errorf("events not sorted by src: %v", events)
		}
		if ev.Dst != (i+1)%n {
			t.Errorf("event %d dst = %d, want %d", i, ev.Dst, (i+1)%n)
		}
		if ev.Size != i+1 {
			t.Errorf("event %d size = %d, want %d", i, ev.Size, i+1)
		}
	}
	if got := e.Metrics().TotalBytes(); got != n*(n+1)/2 {
		t.Errorf("TotalBytes = %d, want %d", got, n*(n+1)/2)
	}
}

func TestEventsOffByDefault(t *testing.T) {
	e := MustNew(2)
	err := e.Run(func(p *Proc) error {
		other := 1 - p.Rank()
		_, err := p.SendRecv(other, []byte{1}, other)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Events(); got != nil {
		t.Errorf("events recorded without Record(true): %v", got)
	}
}
