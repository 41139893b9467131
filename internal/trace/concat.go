package trace

import (
	"fmt"

	"bruck/internal/intmath"
)

// ConcatTrace is the sequence of configurations of the one-port
// concatenation algorithm (Figure 9). Memory slot q of processor i is
// the q-th entry of its accumulation buffer temp; the final snapshot
// shows the rank-ordered result after the local shift.
type ConcatTrace struct {
	N     int
	Steps []Step
}

// TraceConcat simulates the one-port (k = 1) concatenation algorithm of
// Appendix B on labels. Block B[i] is drawn with the label "i0".
func TraceConcat(n int) (*ConcatTrace, error) {
	if n < 1 {
		return nil, fmt.Errorf("trace: n = %d, want >= 1", n)
	}
	tr := &ConcatTrace{N: n}

	// temp[i][q] = label held in slot q of processor i's buffer.
	cfg := NewConfig(n, n)
	for i := 0; i < n; i++ {
		cfg.Cells[i][0] = Label{Proc: i, Block: 0}
	}
	tr.capture("initial configuration (temp buffers)", cfg)
	if n == 1 {
		return tr, nil
	}

	d := intmath.CeilLog(2, n)
	nblk := 1
	// First phase: d-1 doubling rounds (Appendix B lines 6-12).
	for round := 0; round < d-1; round++ {
		next := cfg.Clone()
		for i := 0; i < n; i++ {
			// Processor i receives temp[:nblk] of processor i+nblk and
			// appends it at offset nblk.
			src := intmath.Mod(i+nblk, n)
			for q := 0; q < nblk; q++ {
				next.Cells[i][nblk+q] = cfg.Cells[src][q]
			}
		}
		cfg = next
		tr.capture(fmt.Sprintf("after round %d (receive %d blocks from rank+%d)", round, nblk, nblk), cfg)
		nblk *= 2
	}

	// Last round: the remaining n - nblk blocks (Appendix B lines 13-16).
	rest := n - nblk
	if rest > 0 {
		next := cfg.Clone()
		for i := 0; i < n; i++ {
			src := intmath.Mod(i+nblk, n)
			for q := 0; q < rest; q++ {
				next.Cells[i][nblk+q] = cfg.Cells[src][q]
			}
		}
		cfg = next
		tr.capture(fmt.Sprintf("after last round (receive %d blocks from rank+%d)", rest, nblk), cfg)
	}

	// Final local shift (lines 17-18): inmsg[(i+q) mod n] = temp[q].
	final := NewConfig(n, n)
	for i := 0; i < n; i++ {
		for q := 0; q < n; q++ {
			final.Cells[i][intmath.Mod(i+q, n)] = cfg.Cells[i][q]
		}
	}
	tr.capture("after final local shift (rank order)", final)
	return tr, nil
}

func (tr *ConcatTrace) capture(caption string, cfg *Config) {
	tr.Steps = append(tr.Steps, Step{Caption: caption, Config: cfg.Clone()})
}

// Final returns the last captured configuration.
func (tr *ConcatTrace) Final() *Config {
	return tr.Steps[len(tr.Steps)-1].Config
}
