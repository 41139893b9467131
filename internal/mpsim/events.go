package mpsim

import "sort"

// Link classes of a two-level topology (WithTopology). Engines without
// a topology tag every event ClassIntra.
const (
	// ClassIntra marks a message between processors of the same
	// node-group.
	ClassIntra = 0
	// ClassInter marks a message crossing node-groups.
	ClassInter = 1
	// NumLinkClasses is the number of distinct link classes.
	NumLinkClasses = 2
)

// Event records one message of a run: src sent Size bytes to Dst in
// round Round. Class is the link class of the (src, dst) pair under
// the engine's topology (ClassIntra on engines without one). Events
// are collected only when the engine was created with Record(true).
type Event struct {
	Round, Src, Dst, Size int
	Class                 int
}

// Record enables event collection: every message of a run is logged
// with its round, endpoints and size, available from Metrics.Events.
// Off by default (it costs memory proportional to the message count).
func Record(on bool) Option {
	return func(e *Engine) { e.record = on }
}

// Events returns the recorded messages of the run sorted by (round,
// src, dst), or nil if recording was not enabled.
func (m *Metrics) Events() []Event {
	out := append([]Event(nil), m.events...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
