// Package costmodel implements the linear communication-cost model used
// by the paper to estimate algorithm run time: sending an m-byte message
// costs T = beta + m*tau, where beta is the per-operation start-up
// (latency) and tau the per-byte transfer time. An algorithm with C1
// communication rounds and C2 data volume (sum over rounds of the
// largest message of the round) has estimated time
//
//	T = C1*beta + C2*tau.
//
// Section 3.5 of the paper additionally fits an extended model
// T = g1*C1*ts + g2*C2*tc + g3 to account for OS background load,
// memory-copy time and congestion on the real SP-1; the Extended type
// reproduces it.
//
// The scalar model assumes every link costs the same — the paper's
// fully connected uniform machine. Topology generalizes it to
// two-level clustered machines: named node-groups with one (beta,
// tau) profile per link class (intra-group vs inter-group), under
// which a round is priced by the slowest link it crosses
// (Topology.LevelTime). A Topology with one group — or with
// Intra == Inter — degenerates exactly to the scalar model.
//
// The package prices counts, not programs: the per-processor-clock
// accounting, which charges each message on its own link, is a walk
// over a compiled plan's program (collective.Plan.CriticalPath and
// CriticalPathTopo), the same walk that proves the plan's delivery.
package costmodel

import (
	"fmt"
	"time"
)

// Profile describes a machine under the linear model.
type Profile struct {
	Name string
	Beta float64 // start-up time per send/receive operation, in seconds
	Tau  float64 // transfer time per byte, in seconds
}

// SP1 is the 64-node IBM SP-1 profile measured in Section 3.5: start-up
// about 29 microseconds and sustained point-to-point bandwidth about
// 8.5 Mbytes/s (tau ~ 0.118 microseconds per byte). (The journal text
// prints "msec", a typo: 29 ms of latency would put the r=2 versus r=n
// crossover near 100 Kbytes, while Fig. 5 places it at 100-200 bytes,
// which requires microseconds.)
var SP1 = Profile{
	Name: "IBM SP-1 (EUIH)",
	Beta: 29e-6,
	Tau:  1.0 / 8.5e6,
}

// Generic profiles for sensitivity studies: a latency-bound network and
// a bandwidth-bound one.
var (
	// HighLatency resembles a commodity cluster: high start-up relative
	// to bandwidth, favouring round-minimal (small radix) algorithms.
	HighLatency = Profile{Name: "high-latency", Beta: 100e-6, Tau: 1.0 / 100e6}

	// LowLatency resembles a tightly integrated machine: start-up cheap
	// relative to bandwidth, favouring volume-minimal (large radix)
	// algorithms.
	LowLatency = Profile{Name: "low-latency", Beta: 1e-6, Tau: 1.0 / 1e6}
)

// Time returns the linear-model estimate C1*Beta + C2*Tau in seconds for
// a schedule with c1 rounds and c2 bytes of data volume.
func (p Profile) Time(c1, c2 int) float64 {
	return float64(c1)*p.Beta + float64(c2)*p.Tau
}

// MessageTime returns the cost beta + m*tau of one m-byte message.
func (p Profile) MessageTime(m int) float64 {
	return p.Beta + float64(m)*p.Tau
}

// PipelinedC1 returns the round count of an R-round schedule pipelined
// over s segments: the segments stream through the round structure one
// step apart (segment i starts at step i and finishes at step i+R-1),
// so the whole pipeline drains in R + s - 1 merged rounds. s < 1 and
// R < 1 degenerate to the monolithic count.
func PipelinedC1(rounds, s int) int {
	if s < 1 {
		s = 1
	}
	if rounds < 1 {
		return rounds
	}
	return rounds + s - 1
}

// Duration converts a model time in seconds to a time.Duration for
// display.
func Duration(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// Validate reports whether the profile is physically meaningful.
func (p Profile) Validate() error {
	if p.Beta < 0 || p.Tau < 0 {
		return fmt.Errorf("costmodel: profile %q has negative parameters (beta=%g, tau=%g)", p.Name, p.Beta, p.Tau)
	}
	if p.Beta == 0 && p.Tau == 0 {
		return fmt.Errorf("costmodel: profile %q is degenerate (beta=tau=0)", p.Name)
	}
	return nil
}

// Extended is the calibrated model of Section 3.5:
//
//	T = G1*C1*Beta + G2*C2*Tau + G3
//
// with G1 absorbing the background-process slowdown on start-ups, G2
// absorbing copy/pack/unpack time and congestion on transfers, and G3 a
// fixed per-operation overhead. G1 = G2 = 1, G3 = 0 degenerates to the
// plain linear model.
type Extended struct {
	Profile
	G1 float64 // slowdown on the start-up term
	G2 float64 // slowdown on the transfer term (copies + congestion)
	G3 float64 // fixed overhead in seconds
}

// SP1Measured approximates the calibration the paper alludes to: the
// send_and_receive slowdown is "somewhere between one and two", and
// copies add to the byte term.
var SP1Measured = Extended{Profile: SP1, G1: 1.5, G2: 2.0, G3: 50e-6}

// Time returns the extended-model estimate in seconds.
func (e Extended) Time(c1, c2 int) float64 {
	return e.G1*float64(c1)*e.Beta + e.G2*float64(c2)*e.Tau + e.G3
}
