package collective

import (
	"fmt"

	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// Result summarizes the communication schedule an operation executed,
// in the paper's complexity measures.
type Result struct {
	// C1 is the number of communication rounds.
	C1 int
	// C2 is the data volume in bytes: the sum over rounds of the
	// largest message sent in that round.
	C2 int
	// RoundSizes lists the largest message of each round, in bytes.
	RoundSizes []int
	// TotalBytes is the total payload over all point-to-point messages.
	TotalBytes int64
	// Messages is the number of point-to-point messages sent.
	Messages int64
	// C2LowerBound is the data-volume lower bound of the operation's
	// layout: the largest number of bytes any processor must push or
	// pull through its k ports (package lowerbound — Propositions
	// 2.2/2.4 for uniform layouts, their non-uniform generalization for
	// ragged ones). For the one-to-all primitives it is what the root (of
	// a gather or scatter) or a receiver (of a broadcast) moves.
	C2LowerBound int
	// C1LowerBound is the round-count (dissemination) lower bound
	// ceil(log_{k+1} n) of the operation (package lowerbound,
	// Propositions 2.1/2.3 and their reduction counterparts). Populated
	// by the fixed-size collectives, the one-to-all primitives and layout
	// plans on uniform layouts; zero for ragged layouts, where a
	// zero-count row can void the dissemination argument.
	C1LowerBound int
	// Intra and Inter split the run's C1/C2 by link class for
	// hierarchical plans, with the per-level Section 2 bounds (package
	// lowerbound's Hier* functions) alongside. On an engine with a
	// topology the split is measured; without one it is the compiled
	// per-phase split, which the simulator reproduces exactly. Nil for
	// flat plans.
	Intra, Inter *LevelStats
}

// LevelStats is one link class's share of a hierarchical execution.
type LevelStats struct {
	// C1 is the number of rounds in which a message crossed this link
	// class; C2 the class's data volume (sum over rounds of the class's
	// largest message).
	C1, C2 int
	// C1LowerBound and C2LowerBound are the per-level Section 2 bounds
	// for leader-routed two-level schedules (package lowerbound).
	C1LowerBound, C2LowerBound int
}

// LevelTime prices one level's share under a link-class profile.
func (l *LevelStats) LevelTime(p costmodel.Profile) float64 {
	return p.Time(l.C1, l.C2)
}

func resultFrom(m *mpsim.Metrics) *Result {
	return &Result{
		C1:         m.Rounds(),
		C2:         m.DataVolume(),
		RoundSizes: m.RoundSizes(),
		TotalBytes: m.TotalBytes(),
		Messages:   m.Messages(),
	}
}

// Time returns the linear-model estimate of the schedule under the
// given machine profile.
func (r *Result) Time(p costmodel.Profile) float64 {
	return p.Time(r.C1, r.C2)
}

// TimeTopo returns the linear-model estimate under a two-level
// topology: a hierarchical result (Intra/Inter populated) prices each
// level at its class profile, a flat result pays the topology's
// FlatTime — every round priced by the slowest class it can touch.
func (r *Result) TimeTopo(t *costmodel.Topology) float64 {
	if r.Intra != nil && r.Inter != nil {
		return t.LevelTime(r.Intra.C1, r.Intra.C2, r.Inter.C1, r.Inter.C2)
	}
	return t.FlatTime(r.C1, r.C2)
}

// String renders the headline measures.
func (r *Result) String() string {
	return fmt.Sprintf("C1=%d rounds, C2=%d bytes, total=%d bytes in %d messages",
		r.C1, r.C2, r.TotalBytes, r.Messages)
}
