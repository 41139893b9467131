package main

import (
	"io"

	"bruck/internal/cli"
)

// reporter is the one output path of every subcommand. A study computes
// tables — key/value tables for single results — and nothing else;
// flush prints that list through cli.RenderTables in the format the
// flags select (text by default, -csv on index, -report-json
// everywhere), so the three forms carry the same cells by construction.
type reporter struct {
	w               io.Writer
	csv, reportJSON bool
}

// flush renders the tables a study returned, then returns the study's
// error: a verdict (vet, trace verify) arrives with the table holding
// its FAIL rows, which print before the command exits non-zero.
func (r reporter) flush(tables []*cli.Table, err error) error {
	format, ferr := cli.PickFormat(r.csv, r.reportJSON)
	if ferr != nil {
		return ferr
	}
	if len(tables) > 0 {
		if rerr := cli.RenderTables(r.w, format, tables...); rerr != nil {
			return rerr
		}
	}
	return err
}
