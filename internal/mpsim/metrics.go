package mpsim

import (
	"fmt"
	"sync"
)

// Metrics records the communication activity of one Engine.Run and
// exposes the paper's two complexity measures:
//
//   - C1 (Rounds): the number of communication rounds in which at least
//     one message was sent;
//   - C2 (DataVolume): the sum over rounds of the largest message (over
//     all ports of all processors) sent in that round.
//
// Metrics is safe for concurrent use by the processor goroutines during
// a run and read-only afterwards.
type Metrics struct {
	mu sync.Mutex

	// rounds[i] is the largest message, in bytes, and the number of
	// messages sent in round i.
	rounds []roundRecord

	// groupOf is the engine's rank-to-group table (WithTopology): a send
	// between two groups is ClassInter. Nil on engines without a
	// topology, where every send is ClassIntra.
	groupOf []int
	// classRounds[i][c] is rounds[i] restricted to sends of link class c.
	// Grown with rounds, only when the engine has a topology.
	classRounds [][NumLinkClasses]roundRecord

	totalBytes   int64 // sum of all message sizes over all sends
	messageCount int64 // total number of messages sent

	finishRound []int // final round counter of each processor

	record bool    // collect per-message events
	events []Event // populated only when record is set
}

// roundRecord is the largest message and the message count of one round.
type roundRecord struct{ max, sends int }

func (r *roundRecord) add(size int) {
	r.max = max(r.max, size)
	r.sends++
}

func newMetrics(n int) *Metrics {
	return &Metrics{finishRound: make([]int, n)}
}

func (m *Metrics) recordSend(rank, dst, round, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.rounds) <= round {
		m.rounds = append(m.rounds, roundRecord{})
		if m.groupOf != nil {
			m.classRounds = append(m.classRounds, [NumLinkClasses]roundRecord{})
		}
	}
	m.rounds[round].add(size)
	m.totalBytes += int64(size)
	m.messageCount++
	class := ClassIntra
	if g := m.groupOf; g != nil {
		if g[rank] != g[dst] {
			class = ClassInter
		}
		m.classRounds[round][class].add(size)
	}
	if m.record {
		m.events = append(m.events, Event{Round: round, Src: rank, Dst: dst, Size: size, Class: class})
	}
}

func (m *Metrics) setFinish(rank, round int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishRound[rank] = round
}

// Rounds returns C1: the number of rounds in which at least one message
// was sent. Rounds skipped by every processor do not count.
func (m *Metrics) Rounds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c1 := 0
	for _, r := range m.rounds {
		if r.sends > 0 {
			c1++
		}
	}
	return c1
}

// DataVolume returns C2: the sum over rounds of the largest message sent
// in that round, in bytes (the paper's "amount of data transferred in a
// sequence").
func (m *Metrics) DataVolume() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c2 := 0
	for _, r := range m.rounds {
		c2 += r.max
	}
	return c2
}

// RoundSizes returns a copy of the per-round largest message sizes, in
// bytes, indexed by round.
func (m *Metrics) RoundSizes() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.rounds))
	for i, r := range m.rounds {
		out[i] = r.max
	}
	return out
}

// TotalBytes returns the total number of payload bytes sent over all
// messages of the run (the "total transmissions" quantity of Thm 2.7).
func (m *Metrics) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalBytes
}

// Messages returns the total number of point-to-point messages sent.
func (m *Metrics) Messages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.messageCount
}

// classRecord returns round i's record restricted to one link class.
// Without a topology every send is ClassIntra, so that class reads the
// round's one record and any other reads none.
func (m *Metrics) classRecord(i, class int) roundRecord {
	switch {
	case class < 0 || class >= NumLinkClasses:
	case m.groupOf != nil:
		return m.classRounds[i][class]
	case class == ClassIntra:
		return m.rounds[i]
	}
	return roundRecord{}
}

// ClassRounds returns the number of rounds in which at least one
// message of the given link class was sent — the per-class split of
// C1 on an engine with a topology. Without a topology every send is
// ClassIntra, so ClassRounds(ClassIntra) equals Rounds() and
// ClassRounds(ClassInter) is 0.
func (m *Metrics) ClassRounds(class int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c1 := 0
	for i := range m.rounds {
		if m.classRecord(i, class).sends > 0 {
			c1++
		}
	}
	return c1
}

// ClassVolume returns the sum over rounds of the largest message of
// the given link class sent in that round — the per-class split of
// C2. The class splits sum to at least DataVolume() and equal it
// exactly when no round mixes link classes, which holds for the
// hierarchical schedules (each phase is single-class).
func (m *Metrics) ClassVolume(class int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c2 := 0
	for i := range m.rounds {
		c2 += m.classRecord(i, class).max
	}
	return c2
}

// ClassRoundSizes returns a copy of the per-round largest message
// sizes of one link class, indexed by round; nil on engines without a
// topology.
func (m *Metrics) ClassRoundSizes(class int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.groupOf == nil || class < 0 || class >= NumLinkClasses {
		return nil
	}
	out := make([]int, len(m.classRounds))
	for i := range m.classRounds {
		out[i] = m.classRounds[i][class].max
	}
	return out
}

// uniformityError reports an error if participating processors finished
// on different round counters, which indicates a misaligned SPMD
// schedule (a missing Skip). Processors that never advanced their round
// counter did not take part in the operation (for example processors
// outside the Group of a collective) and are exempt. Called by the
// engine when validation is on.
func (m *Metrics) uniformityError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	first, firstRank := -1, -1
	for rank, r := range m.finishRound {
		if r == 0 {
			continue
		}
		if first == -1 {
			first, firstRank = r, rank
			continue
		}
		if r != first {
			return fmt.Errorf("mpsim: misaligned schedule: p%d finished at round %d but p%d finished at round %d",
				firstRank, first, rank, r)
		}
	}
	return nil
}
