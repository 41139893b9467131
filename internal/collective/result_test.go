package collective

import (
	"reflect"
	"testing"
)

// TestResultTemplateSemantics pins what the paper's measures count, on a
// hand-written two-rank program whose Result the compiler derives: a
// round both ranks skip is not in C1, a send-only and a recv-only side
// make a round, a zero-length message counts as one (it makes its round
// a round of C1 and adds nothing to C2), C2 is the sum of the per-round
// maxima, and RoundSizes runs to the last round that sends.
func TestResultTemplateSemantics(t *testing.T) {
	span := func(n int) []extent { return []extent{spanAt(regWork, fixed(0), 0, n)} }
	exchange := func(x xfer) step { return step{kind: stepExchange, xfers: []xfer{x}} }
	skip := step{kind: stepSkip, n: 1}
	work := []scratch{{bytes: 10, stride: 10}}
	pl := new(Plan)
	pl.derive(&program{n: 2, k: 1, roles: []role{
		{scratch: work, steps: []step{
			skip,
			exchange(xfer{to: fixed(1), send: span(10)}),
			exchange(xfer{to: fixed(1), from: fixed(1), send: span(0), recv: span(0)}),
			exchange(xfer{to: fixed(1), from: fixed(1), send: span(3), recv: span(2)}),
			skip,
		}},
		{scratch: work, steps: []step{
			skip,
			exchange(xfer{from: fixed(0), recv: span(10)}),
			exchange(xfer{to: fixed(0), from: fixed(0), send: span(0), recv: span(0)}),
			exchange(xfer{to: fixed(0), from: fixed(0), send: span(2), recv: span(3)}),
			skip,
		}},
	}})
	want := &Result{C1: 3, C2: 13, RoundSizes: []int{0, 10, 0, 3}, Messages: 5, TotalBytes: 15}
	if got := pl.result(); !reflect.DeepEqual(got, want) {
		t.Errorf("Result = %+v, want %+v", got, want)
	}
	if pl.Rounds() != 5 {
		t.Errorf("the program runs %d rounds, want 5 (skips included)", pl.Rounds())
	}
}
