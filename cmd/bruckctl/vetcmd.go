// The vet subcommand statically verifies the golden corpus without
// executing anything: it recompiles every corpus case and runs
// Plan.Check over its step program — a symbolic delivery proof for all
// 22 cases, formula-driven, ragged, reducing and hierarchical ones
// included.
//
//	bruckctl vet [-case substr] [-report-json]
//
// Where `bruckctl trace verify` proves a live run sends exactly the
// messages of the program, and the program still matches its committed
// listing, vet proves the program itself is well-formed: k-port limits,
// round alignment, C1/C2 and the phase table recomputed from the
// program, and the delivery simulation that shows the program realizes
// the collective. Its negative controls are the rows of
// TestCheckPerturbations. It also holds the walk's clock (CriticalPath)
// to the linear model (Time): never above it, and equal to it on a
// schedule where every rank sends the round's largest message in every
// round; TestVetClockFindings is the negative control.
package main

import (
	"fmt"
	"io"
	"math"

	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/golden"
)

func newVetCmd() *command {
	fs := newFlagSet("vet")
	caseFilter := fs.String(cli.FlagCase, "", "only cases whose name contains this substring")
	reportJSON := fs.Bool(cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "vet", summary: "statically verify the corpus's compiled plans", fs: fs}
	c.exec = func(_ []string, w io.Writer) error {
		return vetRun(*caseFilter, *reportJSON, w)
	}
	return c
}

func vetRun(caseFilter string, reportJSON bool, out io.Writer) error {
	return reporter{out, false, reportJSON}.flush(corpusTable("vet", caseFilter, func(c golden.Case) (string, string, error) {
		pl, err := golden.Compile(c)
		if err != nil {
			return "", "", err
		}
		status, detail := verdict(append(pl.Check(), clockFindings(pl, pl.CriticalPath(costmodel.SP1))...))
		return status, detail, nil
	}))
}

// clockFindings holds a plan's critical path cp under SP1 to its Time: a
// rank's clock gains at most the round's largest message time per round,
// so cp never exceeds Time, and where every rank sends that message in
// every round (symmetric) all clocks move in lockstep and cp is Time.
func clockFindings(pl *collective.Plan, cp float64) []string {
	linear := pl.Time(costmodel.SP1)
	switch tol := 1e-12 * linear; {
	case cp > linear+tol:
		return []string{fmt.Sprintf("critical path %g exceeds Time %g", cp, linear)}
	case symmetric(pl) && math.Abs(cp-linear) > tol:
		return []string{fmt.Sprintf("every rank sends each round's largest message, yet the critical path %g is not Time %g", cp, linear)}
	}
	return nil
}

// symmetric reports whether every rank of the plan's group sends a
// message of the round's largest size in every round that carries one.
func symmetric(pl *collective.Plan) bool {
	msgs := pl.Messages() // sorted by round
	for i, j := 0, 0; i < len(msgs); i = j {
		most, senders := 0, map[int]bool{}
		for j = i; j < len(msgs) && msgs[j].Round == msgs[i].Round; j++ {
			most = max(most, msgs[j].Size)
		}
		for _, m := range msgs[i:j] {
			if m.Size == most {
				senders[m.Src] = true
			}
		}
		if len(senders) != pl.Group().Size() {
			return false
		}
	}
	return true
}
