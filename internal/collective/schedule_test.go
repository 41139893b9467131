package collective

import (
	"fmt"
	"testing"

	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// Schedule-level invariants, checked on recorded message events: both
// of the paper's algorithms are translation-invariant — their round-r
// communication pattern is a single set of (offset, size) pairs applied
// at every processor. This is the structural property that makes the
// spanning-tree argument of Section 4 (T_i = T_0 + i) and the
// rotation argument of Section 3 work.

// eventKey identifies a message by round, offset (dst - src mod n) and
// size.
type eventKey struct {
	round, offset, size int
}

// checkTranslationInvariance verifies that, in every round, every
// processor sends the same multiset of (offset, size) messages.
func checkTranslationInvariance(t *testing.T, m *mpsim.Metrics, n int, tag string) {
	t.Helper()
	perProc := make(map[int]map[eventKey]int) // src -> key -> count
	rounds := make(map[int]bool)
	for _, ev := range m.Events() {
		if perProc[ev.Src] == nil {
			perProc[ev.Src] = make(map[eventKey]int)
		}
		perProc[ev.Src][eventKey{ev.Round, intmath.Mod(ev.Dst-ev.Src, n), ev.Size}]++
		rounds[ev.Round] = true
	}
	if len(perProc) != n {
		t.Fatalf("%s: only %d of %d processors sent messages", tag, len(perProc), n)
	}
	ref := perProc[0]
	for src := 1; src < n; src++ {
		got := perProc[src]
		if len(got) != len(ref) {
			t.Fatalf("%s: p%d has %d distinct (round,offset,size) keys, p0 has %d",
				tag, src, len(got), len(ref))
		}
		for key, count := range ref {
			if got[key] != count {
				t.Fatalf("%s: p%d sends %d messages with %+v, p0 sends %d",
					tag, src, got[key], key, count)
			}
		}
	}
}

func TestIndexScheduleTranslationInvariant(t *testing.T) {
	for _, tc := range []struct{ n, r, k int }{
		{8, 2, 1}, {12, 3, 1}, {16, 4, 3}, {10, 10, 2}, {17, 2, 1},
	} {
		e := mpsim.MustNew(tc.n, mpsim.Ports(tc.k), mpsim.Record(true))
		in := genIndexInput(tc.n, 3)
		if _, _, err := indexSlices(e, mpsim.WorldGroup(tc.n), in, IndexOptions{Radix: tc.r}); err != nil {
			t.Fatal(err)
		}
		checkTranslationInvariance(t, e.Metrics(), tc.n,
			fmt.Sprintf("index n=%d r=%d k=%d", tc.n, tc.r, tc.k))
	}
}

func TestConcatScheduleTranslationInvariant(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{8, 1}, {9, 2}, {17, 1}, {23, 3}, {63, 3}, {16, 3},
	} {
		e := mpsim.MustNew(tc.n, mpsim.Ports(tc.k), mpsim.Record(true))
		in := genConcatInput(tc.n, 4)
		if _, _, err := concatSlices(e, mpsim.WorldGroup(tc.n), in, ConcatOptions{}); err != nil {
			t.Fatal(err)
		}
		checkTranslationInvariance(t, e.Metrics(), tc.n,
			fmt.Sprintf("concat n=%d k=%d", tc.n, tc.k))
	}
}

// TestConcatScheduleMatchesSpanningTrees: with recording on, the
// block-aligned rounds of the circulant concatenation use exactly the
// offset sets S_i = {(k+1)^i .. k(k+1)^i} of Section 4.1.
func TestConcatScheduleMatchesSpanningTrees(t *testing.T) {
	const n, k = 27, 2
	e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.Record(true))
	in := genConcatInput(n, 2)
	if _, _, err := concatSlices(e, mpsim.WorldGroup(n), in, ConcatOptions{}); err != nil {
		t.Fatal(err)
	}
	// d = 3 rounds; rounds 0 and 1 are the first phase with offsets
	// -S_i (the Appendix B negative-offset convention: p sends to
	// p - offset).
	for round := 0; round < 2; round++ {
		base := intmath.Pow(k+1, round)
		want := map[int]bool{}
		for t := 1; t <= k; t++ {
			want[intmath.Mod(-t*base, n)] = true
		}
		for _, ev := range e.Metrics().Events() {
			off := intmath.Mod(ev.Dst-ev.Src, n)
			if ev.Round == round && !want[off] {
				t.Errorf("round %d uses offset %d, want one of -S_%d = %v", round, off, round, want)
			}
		}
	}
}

// TestIndexEveryPairCommunicatesDirect: in the direct algorithm every
// ordered pair exchanges exactly one message.
func TestIndexEveryPairCommunicatesDirect(t *testing.T) {
	const n = 9
	e := mpsim.MustNew(n, mpsim.Record(true))
	in := genIndexInput(n, 2)
	if _, _, err := indexSlices(e, mpsim.WorldGroup(n), in, IndexOptions{Algorithm: IndexDirect}); err != nil {
		t.Fatal(err)
	}
	pairs := make(map[[2]int]int)
	for _, ev := range e.Metrics().Events() {
		pairs[[2]int{ev.Src, ev.Dst}]++
	}
	if len(pairs) != n*(n-1) {
		t.Fatalf("%d ordered pairs communicated, want %d", len(pairs), n*(n-1))
	}
	for pair, count := range pairs {
		if count != 1 {
			t.Errorf("pair %v exchanged %d messages, want 1", pair, count)
		}
	}
}
