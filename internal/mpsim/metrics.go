package mpsim

// Metrics records the communication activity of one Engine.Run and
// exposes the paper's two complexity measures:
//
//   - C1 (Rounds): the number of communication rounds in which at least
//     one message was sent;
//   - C2 (DataVolume): the sum over rounds of the largest message (over
//     all ports of all processors) sent in that round.
//
// Each Proc records its own sends into a shard of its own, so recording
// takes no lock; the engine merges the shards into the run's Metrics
// once every processor has returned, and the Metrics is read-only from
// then on.
type Metrics struct {
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

	record bool    // collect per-message events
	events []Event // populated only when record is set
}

// roundRecord is the largest message and the message count of one round.
type roundRecord struct{ max, sends int }

func (r *roundRecord) add(size int) {
	r.max = max(r.max, size)
	r.sends++
}

func (r *roundRecord) merge(o roundRecord) {
	r.max = max(r.max, o.max)
	r.sends += o.sends
}

// recordSend logs one send of a run into m, a Proc's shard.
func (m *Metrics) recordSend(rank, dst, round, size int) {
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

// reset empties a shard for the next run, keeping its capacity.
func (m *Metrics) reset() {
	m.rounds, m.classRounds, m.events = m.rounds[:0], m.classRounds[:0], m.events[:0]
	m.totalBytes, m.messageCount = 0, 0
}

// merge adds shard s to m: per round the larger of the two largest
// messages and the sum of the sends, per link class likewise.
func (m *Metrics) merge(s *Metrics) {
	if grow := len(s.rounds) - len(m.rounds); grow > 0 {
		m.rounds = append(m.rounds, make([]roundRecord, grow)...)
		if m.groupOf != nil {
			m.classRounds = append(m.classRounds, make([][NumLinkClasses]roundRecord, grow)...)
		}
	}
	for i, r := range s.rounds {
		m.rounds[i].merge(r)
	}
	for i, rs := range s.classRounds {
		for c, r := range rs {
			m.classRounds[i][c].merge(r)
		}
	}
	m.totalBytes += s.totalBytes
	m.messageCount += s.messageCount
	m.events = append(m.events, s.events...)
}

// Rounds returns C1: the number of rounds in which at least one message
// was sent. Rounds skipped by every processor do not count.
func (m *Metrics) Rounds() int {
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
	c2 := 0
	for _, r := range m.rounds {
		c2 += r.max
	}
	return c2
}

// RoundSizes returns a copy of the per-round largest message sizes, in
// bytes, indexed by round.
func (m *Metrics) RoundSizes() []int {
	out := make([]int, len(m.rounds))
	for i, r := range m.rounds {
		out[i] = r.max
	}
	return out
}

// TotalBytes returns the total number of payload bytes sent over all
// messages of the run (the "total transmissions" quantity of Thm 2.7).
func (m *Metrics) TotalBytes() int64 { return m.totalBytes }

// Messages returns the total number of point-to-point messages sent.
func (m *Metrics) Messages() int64 { return m.messageCount }

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
	if m.groupOf == nil || class < 0 || class >= NumLinkClasses {
		return nil
	}
	out := make([]int, len(m.classRounds))
	for i := range m.classRounds {
		out[i] = m.classRounds[i][class].max
	}
	return out
}
