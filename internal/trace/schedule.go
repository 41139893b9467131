package trace

// Canonical schedule traces: a JSON-serializable record of everything a
// compiled collective schedule does — which processor sends how many
// bytes to which partner in which round, and (for table-driven
// schedules) which blocks and byte extents each message carries. The
// golden-trace tooling (internal/golden, `bruckctl trace`) snapshots
// these artifacts and diffs live runs against them, so any structural drift
// in a schedule — an extra round, a changed partner, a resized message
// — fails loudly instead of slipping through as a silent performance or
// correctness regression.
//
// A Schedule has two sections:
//
//   - Rounds is the authoritative record of one live execution: the
//     engine's recorded per-message events grouped by round, sorted by
//     (src, dst) within each round. It is defined for every algorithm,
//     and — because the paper's schedules are pure functions of
//     (n, k, r) — it is identical across transports: chan, slot and
//     chaos runs of one plan produce byte-for-byte the same Rounds.
//   - Pattern is the compiled, translation-invariant view from group
//     rank 0's perspective: the per-round partner offsets with the
//     block ids (Bruck index, circulant doubling) or byte extents
//     (circulant last rounds) each message carries. Only table-driven
//     schedules emit it; formula-driven ones (direct, pairwise-xor,
//     ring, folklore, recursive doubling, ring/halving reductions)
//     leave it empty — their Rounds section carries all structure.

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Schedule is the canonical trace of one collective schedule, the unit
// the golden tooling records and verifies. Field order is the canonical
// JSON order. A committed artifact must equal a live capture, and the
// program that produced it is proved by Plan.Check (`bruckctl vet`);
// the code that produces them is held deterministic — no wall clock, no
// global randomness, no map-order leaks — by the byte-identical goldens
// (internal/golden) and CI's `one clock` step.
type Schedule struct {
	// Op is the collective operation: "index", "concat",
	// "reduce-scatter" or "allreduce".
	Op string `json:"op"`
	// Algorithm is the schedule family within the operation ("bruck",
	// "circulant", "ring", ...).
	Algorithm string `json:"algorithm"`
	// N is the group size, K the port count the schedule was compiled
	// for.
	N int `json:"n"`
	K int `json:"k"`
	// BlockLen is the block size in bytes; for ragged layout plans it is
	// the padded slot size the fixed-size schedule runs on.
	BlockLen int `json:"blockLen"`
	// Ragged marks a layout (IndexV/ConcatV) plan.
	Ragged bool `json:"ragged,omitempty"`
	// Segments is the pipeline segment count of a segment-pipelined
	// plan: each block splits into this many byte spans streaming
	// through the round structure one merged round apart, so a round may
	// multiplex up to Segments compiled rounds over the ports. 0 (and,
	// equivalently, 1) is a monolithic schedule.
	Segments int `json:"segments,omitempty"`
	// C1 and C2 are the schedule's round count and data volume as
	// compiled — the paper's two complexity measures.
	C1 int `json:"c1"`
	C2 int `json:"c2"`
	// Topology is the topology spec ("4x4", "4,4,3") of a hierarchical
	// (two-level) schedule and Groups its group sizes; both empty for
	// flat schedules.
	Topology string `json:"topology,omitempty"`
	Groups   []int  `json:"groups,omitempty"`
	// Phases is the phase table of a hierarchical schedule: contiguous
	// runs of rounds, each moving data over a single link class. Empty
	// for flat schedules.
	Phases []SchedulePhase `json:"phases,omitempty"`
	// Rounds is the recorded execution, grouped by round.
	Rounds []ScheduleRound `json:"rounds"`
	// Pattern is the compiled rank-0 view, empty for formula-driven
	// algorithms — and for hierarchical schedules, whose leader-routed
	// phases are not translation invariant (Phases carries their
	// structure instead).
	Pattern []PatternRound `json:"pattern,omitempty"`
}

// SchedulePhase is one phase of a hierarchical schedule: Rounds global
// rounds starting at First, all moving data over link class Class
// ("intra" or "inter"), contributing C1 rounds and C2 bytes to the
// schedule's totals.
type SchedulePhase struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	First  int    `json:"first"`
	Rounds int    `json:"rounds"`
	C1     int    `json:"c1"`
	C2     int    `json:"c2"`
}

// ScheduleRound is all messages of one communication round.
type ScheduleRound struct {
	Round int            `json:"round"`
	Sends []ScheduleSend `json:"sends"`
}

// ScheduleSend is one recorded message: Src sent Bytes bytes to Dst.
type ScheduleSend struct {
	Src   int `json:"src"`
	Dst   int `json:"dst"`
	Bytes int `json:"bytes"`
}

// PatternRound is one round of the compiled schedule as group rank 0
// executes it; every other rank runs the same round translated by its
// rank (the schedules are translation invariant).
type PatternRound struct {
	// Phase names the schedule phase the round belongs to: "bruck"
	// (index Phase 2), "doubling" or "last" or "trivial" (circulant
	// concatenation).
	Phase     string            `json:"phase"`
	Transfers []PatternTransfer `json:"transfers"`
}

// PatternTransfer is one message of a pattern round: rank me sends
// Bytes bytes to rank me+Offset (mod n) and receives the same shape
// from rank me-Offset.
type PatternTransfer struct {
	Offset int `json:"offset"`
	Bytes  int `json:"bytes"`
	// Blocks lists the working-region block ids the payload carries
	// (Bruck index rounds, circulant doubling rounds), ascending.
	Blocks []int `json:"blocks,omitempty"`
	// Extents lists the byte-granular pieces of a circulant last-round
	// area by their destination placement: the payload's bytes land in
	// accumulation slot Block at [Off, Off+Len).
	Extents []Extent `json:"extents,omitempty"`
}

// Extent is one contiguous byte run of a last-round transfer.
type Extent struct {
	Block int `json:"block"`
	Off   int `json:"off"`
	Len   int `json:"len"`
}

// Canonical serializes the schedule to its canonical byte form: indented
// JSON with fixed field order and a trailing newline. Two schedules are
// structurally identical iff their canonical forms are byte-equal, so
// golden files diff cleanly under version control.
func (s *Schedule) Canonical() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("trace: marshal schedule: %w", err)
	}
	return append(b, '\n'), nil
}

// ParseSchedule decodes a canonical schedule artifact. Unknown fields
// are rejected: a trace written by a future format revision must fail
// verification, not silently drop structure.
func ParseSchedule(data []byte) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("trace: parse schedule: %w", err)
	}
	return &s, nil
}

// maxDiffs bounds a Diff report; a structurally wrong schedule diverges
// everywhere, and the first few sites identify the drift.
const maxDiffs = 20

// Diff structurally compares two schedules and returns a human-readable
// report of every divergence (capped at maxDiffs sites), or nil when
// they are identical. got is the live schedule, want the golden.
func Diff(got, want *Schedule) []string {
	var d []string
	add := func(format string, args ...any) {
		if len(d) < maxDiffs {
			d = append(d, fmt.Sprintf(format, args...))
		}
	}
	if got.Op != want.Op {
		add("op: got %q, want %q", got.Op, want.Op)
	}
	if got.Algorithm != want.Algorithm {
		add("algorithm: got %q, want %q", got.Algorithm, want.Algorithm)
	}
	if got.N != want.N {
		add("n: got %d, want %d", got.N, want.N)
	}
	if got.K != want.K {
		add("k: got %d, want %d", got.K, want.K)
	}
	if got.BlockLen != want.BlockLen {
		add("blockLen: got %d, want %d", got.BlockLen, want.BlockLen)
	}
	if got.Ragged != want.Ragged {
		add("ragged: got %v, want %v", got.Ragged, want.Ragged)
	}
	if got.Segments != want.Segments {
		add("segments: got %d, want %d", got.Segments, want.Segments)
	}
	if got.C1 != want.C1 {
		add("c1: got %d, want %d", got.C1, want.C1)
	}
	if got.C2 != want.C2 {
		add("c2: got %d, want %d", got.C2, want.C2)
	}
	if got.Topology != want.Topology {
		add("topology: got %q, want %q", got.Topology, want.Topology)
	}
	if !intSliceEq(got.Groups, want.Groups) {
		add("groups: got %v, want %v", got.Groups, want.Groups)
	}
	diffPhases(got.Phases, want.Phases, add)
	diffRounds(got.Rounds, want.Rounds, add)
	diffPattern(got.Pattern, want.Pattern, add)
	return d
}

func diffPhases(got, want []SchedulePhase, add func(string, ...any)) {
	if len(got) != len(want) {
		add("phases: got %d, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			add("phases[%d]: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func diffRounds(got, want []ScheduleRound, add func(string, ...any)) {
	if len(got) != len(want) {
		add("rounds: got %d, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		if g.Round != w.Round {
			add("rounds[%d].round: got %d, want %d", i, g.Round, w.Round)
		}
		if len(g.Sends) != len(w.Sends) {
			add("rounds[%d]: got %d sends, want %d", i, len(g.Sends), len(w.Sends))
		}
		for j := 0; j < len(g.Sends) && j < len(w.Sends); j++ {
			if g.Sends[j] != w.Sends[j] {
				add("rounds[%d].sends[%d]: got p%d->p%d %dB, want p%d->p%d %dB", i, j,
					g.Sends[j].Src, g.Sends[j].Dst, g.Sends[j].Bytes,
					w.Sends[j].Src, w.Sends[j].Dst, w.Sends[j].Bytes)
			}
		}
	}
}

func diffPattern(got, want []PatternRound, add func(string, ...any)) {
	if len(got) != len(want) {
		add("pattern: got %d rounds, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		if g.Phase != w.Phase {
			add("pattern[%d].phase: got %q, want %q", i, g.Phase, w.Phase)
		}
		if len(g.Transfers) != len(w.Transfers) {
			add("pattern[%d]: got %d transfers, want %d", i, len(g.Transfers), len(w.Transfers))
		}
		for j := 0; j < len(g.Transfers) && j < len(w.Transfers); j++ {
			gt, wt := g.Transfers[j], w.Transfers[j]
			if gt.Offset != wt.Offset || gt.Bytes != wt.Bytes {
				add("pattern[%d].transfers[%d]: got offset %d %dB, want offset %d %dB",
					i, j, gt.Offset, gt.Bytes, wt.Offset, wt.Bytes)
			}
			if !intSliceEq(gt.Blocks, wt.Blocks) {
				add("pattern[%d].transfers[%d].blocks: got %v, want %v", i, j, gt.Blocks, wt.Blocks)
			}
			if !extentsEq(gt.Extents, wt.Extents) {
				add("pattern[%d].transfers[%d].extents: got %v, want %v", i, j, gt.Extents, wt.Extents)
			}
		}
	}
}

func intSliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func extentsEq(a, b []Extent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
