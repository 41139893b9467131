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
// TestCheckPerturbations.
package main

import (
	"io"

	"bruck/internal/cli"
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
		status, detail := verdict(pl.Check())
		return status, detail, nil
	}))
}
