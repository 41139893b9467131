// The trace subcommand records and verifies the golden corpus
// (internal/golden): the program listing of every representative
// collective schedule.
//
//	bruckctl trace record  [-dir d] [-case substr] [-transport b]
//	bruckctl trace verify  [-dir d] [-case substr] [-transport b] [-chaos-seed s] [-chaos-inner b] [-stragglers 0,3]
//
// Both run each case live and require the run to send exactly the
// messages its program predicts; record then (re)writes the case's
// listing, verify compares it with the committed one and names the
// first lines that differ, exiting nonzero on any drift. Under
// -transport chaos, verify proves the committed programs survive
// adversarial timing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bruck/internal/cli"
	"bruck/internal/golden"
)

func newTraceCmd() *command {
	// The mode word comes first: dispatch parses the flags before it, run
	// those after it, into the same set.
	fs := newFlagSet("trace")
	f := registerTraceFlags(fs)
	c := &command{name: "trace", summary: "record/verify the golden schedule corpus", fs: fs}
	c.exec = func(args []string, w io.Writer) error { return f.run(fs, args, w) }
	return c
}

// traceFlags is one trace invocation's configuration.
type traceFlags struct {
	dir        *string
	caseFilter *string
	tf         *cli.TransportFlags
	reportJSON *bool
}

func registerTraceFlags(fs *flag.FlagSet) traceFlags {
	var f traceFlags
	f.dir = fs.String("dir", defaultTraceDir(), "golden artifact directory")
	f.caseFilter = fs.String(cli.FlagCase, "", "only cases whose name contains this substring")
	f.tf = cli.RegisterTransportFlags(fs)
	f.reportJSON = fs.Bool(cli.FlagReportJSON, false, "emit the JSON report instead of text")
	return f
}

// run records or verifies the corpus; args are the mode word and the
// flags after it.
func (f traceFlags) run(fs *flag.FlagSet, args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: bruckctl trace <record|verify> [flags]")
	}
	mode := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	opts, err := f.tf.EngineOptions()
	if err != nil {
		return err
	}
	rp := reporter{out, false, *f.reportJSON}
	switch mode {
	case "record":
		return rp.flush(corpusTable("trace-record", *f.caseFilter, func(c golden.Case) (string, string, error) {
			listing, err := golden.Capture(c, opts...)
			if err != nil {
				return "", "", err
			}
			if err := golden.Write(*f.dir, c, listing); err != nil {
				return "", "", err
			}
			return "recorded", fmt.Sprintf("%s (%d lines)", golden.Path(*f.dir, c), strings.Count(listing, "\n")), nil
		}))
	case "verify":
		return rp.flush(corpusTable("trace-verify", *f.caseFilter, func(c golden.Case) (string, string, error) {
			listing, err := golden.Capture(c, opts...)
			if err != nil {
				return "", "", err
			}
			diffs, err := golden.Verify(*f.dir, c, listing)
			status, detail := verdict(diffs)
			return status, detail, err
		}))
	}
	return fmt.Errorf("unknown trace mode %q (want record or verify)", mode)
}

// corpusTable tabulates case/status/detail over the corpus cases whose
// name contains filter, one row per case from row, and owns the exit:
// an error of row's at once, and after the last row "N of M cases
// failed" when some status is FAIL — returned with the table, so the
// FAIL rows print first.
func corpusTable(name, filter string, row func(c golden.Case) (status, detail string, err error)) ([]*cli.Table, error) {
	t := &cli.Table{Name: name, Columns: []string{"case", "status", "detail"}}
	failed := 0
	for _, c := range golden.Corpus() {
		if !strings.Contains(c.Name, filter) {
			continue
		}
		status, detail, err := row(c)
		if err != nil {
			return nil, err
		}
		if status == "FAIL" {
			failed++
		}
		t.AddRow(c.Name, status, detail)
	}
	switch {
	case len(t.Rows) == 0:
		return nil, fmt.Errorf("no cases match -case %q", filter)
	case failed > 0:
		return []*cli.Table{t}, fmt.Errorf("%d of %d cases failed", failed, len(t.Rows))
	}
	return []*cli.Table{t}, nil
}

// verdict is one case's status and detail from its findings (diffs or
// violations): none is a pass.
func verdict(findings []string) (status, detail string) {
	if len(findings) != 0 {
		return "FAIL", strings.Join(findings, "; ")
	}
	return "ok", ""
}

// defaultTraceDir locates the committed corpus: golden.Dir is relative
// to the internal/golden package directory, so from a repo-root working
// directory the artifacts live under internal/golden. Fall back to the
// bare golden.Dir when run from that package directory itself.
func defaultTraceDir() string {
	repoRel := filepath.Join("internal", "golden", golden.Dir)
	if _, err := os.Stat(repoRel); err == nil {
		return repoRel
	}
	return golden.Dir
}
