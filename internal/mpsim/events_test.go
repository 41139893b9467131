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

func TestMergeEvents(t *testing.T) {
	// Two disjoint programs record independently; the merged stream is
	// sorted by (round, src, dst) and interleaves their rounds.
	e := MustNew(4, Record(true))
	pair := func(a, b int) func(p *Proc) error {
		return func(p *Proc) error {
			partner := a
			if p.Rank() == a {
				partner = b
			}
			for q := 0; q < 2; q++ {
				if _, err := p.SendRecv(partner, make([]byte, 4+p.Rank()), partner); err != nil {
					return err
				}
			}
			return nil
		}
	}
	metrics, err := e.RunPrograms([]Program{
		{Members: []int{0, 1}, Body: pair(0, 1)},
		{Members: []int{2, 3}, Body: pair(2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeEvents(metrics...)
	if want := len(metrics[0].Events()) + len(metrics[1].Events()); len(merged) != want {
		t.Fatalf("merged %d events, want %d", len(merged), want)
	}
	for i := 1; i < len(merged); i++ {
		a, b := merged[i-1], merged[i]
		if a.Round > b.Round || (a.Round == b.Round && (a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst))) {
			t.Fatalf("merged stream out of order at %d: %+v before %+v", i, a, b)
		}
	}
	// Round 0 must contain senders from BOTH programs — the streams
	// interleave rather than concatenate.
	srcs := map[int]bool{}
	for _, ev := range merged {
		if ev.Round == 0 {
			srcs[ev.Src] = true
		}
	}
	if !srcs[0] || !srcs[2] {
		t.Errorf("round 0 senders %v, want both programs represented", srcs)
	}
	if MergeEvents(nil, nil) != nil {
		t.Error("merging nil metrics should yield nil")
	}
}
