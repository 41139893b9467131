// The trace subcommand records and verifies the golden schedule-trace
// corpus (internal/golden): canonical JSON artifacts of every
// representative collective schedule.
//
//	bruckctl trace record  [-dir d] [-case substr] [-transport b]
//	bruckctl trace verify  [-dir d] [-case substr] [-transport b] [-chaos-seed s] [-chaos-inner b] [-stragglers 0,3] [-perturb]
//
// record captures each case live and (re)writes its artifact; verify
// captures each case live and diffs it against the committed artifact,
// exiting nonzero on any structural drift. Traces are
// transport-independent, so verify under -transport chaos proves the
// committed schedules survive adversarial timing. -perturb is the
// negative self-test: it structurally perturbs every live schedule and
// succeeds only if every case then FAILS verification — proving the
// diff actually detects drift.
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
	perturb    *bool
	reportJSON *bool
}

func registerTraceFlags(fs *flag.FlagSet) traceFlags {
	var f traceFlags
	f.dir = fs.String("dir", defaultTraceDir(), "golden artifact directory")
	f.caseFilter = fs.String(cli.FlagCase, "", "only cases whose name contains this substring")
	f.tf = cli.RegisterTransportFlags(fs)
	f.perturb = fs.Bool("perturb", false, "verify only: perturb each live schedule and require verification to fail")
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
			s, err := golden.Capture(c, opts...)
			if err != nil {
				return "", "", err
			}
			if err := golden.Write(*f.dir, c, s); err != nil {
				return "", "", err
			}
			return "recorded", fmt.Sprintf("%s (%d rounds)", golden.Path(*f.dir, c), s.C1), nil
		}))
	case "verify":
		return rp.flush(corpusTable("trace-verify", *f.caseFilter, func(c golden.Case) (string, string, error) {
			s, err := golden.Capture(c, opts...)
			if err != nil {
				return "", "", err
			}
			if *f.perturb {
				golden.Perturb(s)
			}
			diffs, err := golden.Verify(*f.dir, c, s)
			status, detail := verdict(*f.perturb, diffs)
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
// violations): none is a pass, unless the case was perturbed — the
// negative self-test, which passes only when the perturbation was found.
func verdict(perturb bool, findings []string) (status, detail string) {
	switch {
	case perturb && len(findings) == 0:
		return "FAIL", "perturbed schedule passed verification"
	case perturb:
		return "ok", fmt.Sprintf("perturbation detected (%d diffs)", len(findings))
	case len(findings) != 0:
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
