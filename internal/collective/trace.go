package collective

// Canonical trace export: every compiled Plan — index, concat,
// reduction, fixed-size or layout — can emit the trace.Schedule of one
// execution, pairing the engine's recorded event stream with the plan's
// compiled pattern. The golden tooling (internal/golden, `bruckctl
// trace`) snapshots and verifies these artifacts.

import (
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/trace"
)

// Schedule builds the canonical trace of this plan from the recorded
// events of one execution (Metrics.Events of a run on an engine created
// with mpsim.Record(true); nil is legal and yields an empty Rounds
// section, e.g. for n = 1 plans that send nothing).
//
// The Rounds section is the live execution; the Pattern section is the
// compiled rank-0 schedule for table-driven plans (Bruck-family index
// rounds, circulant doubling/last/trivial rounds) and empty for
// formula-driven ones, whose partner arithmetic leaves nothing compiled
// to export. Because the schedules are pure functions of (n, k, r), the
// trace is independent of the transport backend the run used.
func (pl *Plan) Schedule(events []mpsim.Event) *trace.Schedule {
	s := &trace.Schedule{
		Op:        pl.op.String(),
		Algorithm: pl.Algorithm(),
		N:         pl.group.Size(),
		K:         pl.engine.Ports(),
		BlockLen:  pl.blockLen,
		Ragged:    pl.layout != nil,
		Segments:  pl.segments,
		C1:        pl.c1,
		C2:        pl.c2,
		Rounds:    GroupEvents(events),
	}
	if pl.topo != nil {
		// Hierarchical schedules export their phase table in place of a
		// Pattern: the leader-routed phases are not translation
		// invariant, so there is no single rank-0 view to compile.
		s.Topology = pl.topo.Spec()
		s.Groups = append([]int(nil), pl.topo.Groups...)
		for _, ph := range pl.phases {
			s.Phases = append(s.Phases, trace.SchedulePhase{
				Name:   ph.Name,
				Class:  costmodel.LinkClass(ph.Class).String(),
				First:  ph.First,
				Rounds: ph.Rounds,
				C1:     ph.Rounds,
				C2:     ph.C2,
			})
		}
		return s
	}
	s.Pattern = pl.prog.pattern()
	return s
}

// GroupEvents converts a (round, src, dst)-sorted event stream — the
// shape Metrics.Events returns — into the trace's per-round grouping.
func GroupEvents(events []mpsim.Event) []trace.ScheduleRound {
	rounds := []trace.ScheduleRound{}
	for _, ev := range events {
		if len(rounds) == 0 || rounds[len(rounds)-1].Round != ev.Round {
			rounds = append(rounds, trace.ScheduleRound{Round: ev.Round})
		}
		last := &rounds[len(rounds)-1]
		last.Sends = append(last.Sends, trace.ScheduleSend{Src: ev.Src, Dst: ev.Dst, Bytes: ev.Size})
	}
	return rounds
}
