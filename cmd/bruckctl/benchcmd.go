// The bench and compare subcommands are the perf-snapshot workflow:
// bench runs the curated suite (internal/benchsuite) and writes one
// canonical BENCH_<area>.json per area; compare diffs two snapshots
// and exits non-zero on regressions beyond the thresholds.
//
//	bruckctl bench                     # full suite -> BENCH_collectives.json, BENCH_reduce.json
//	bruckctl bench -short -out /tmp    # CI smoke settings, custom directory
//	bruckctl bench -area reduce -case allreduce
//	bruckctl compare BENCH_collectives.json /tmp/BENCH_collectives.json
//	bruckctl compare -ns-threshold 1000 old.json new.json   # gate on C1/C2/allocs only
//	bruckctl compare -selftest BENCH_collectives.json       # negative control
//
// Snapshot timings (ns/op) are machine-dependent; the C1/C2 schedule
// measures are deterministic and regress on any increase regardless of
// thresholds. -selftest injects a synthetic ns/op regression into the
// given snapshot and succeeds only if compare detects it — proving the
// gate can fail.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bruck/internal/benchsnap"
	"bruck/internal/benchsuite"
	"bruck/internal/cli"
)

type benchParams struct {
	short      bool
	area       string
	caseFilter string
	out        string
	reportJSON bool
}

func newBenchCmd() *command {
	fs := newFlagSet("bench")
	var p benchParams
	fs.BoolVar(&p.short, "short", false, "CI smoke settings: fewer iterations, no time floor")
	fs.StringVar(&p.area, "area", "", "only this snapshot area (collectives, hier, reduce, pipeline)")
	fs.StringVar(&p.caseFilter, cli.FlagCase, "", "only cases whose name contains this substring")
	fs.StringVar(&p.out, "out", ".", "directory the BENCH_<area>.json snapshots are written to")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "bench", summary: "run the curated perf suite and write BENCH_<area>.json snapshots", fs: fs}
	c.exec = func(args []string, w io.Writer) error {
		if err := fs.Parse(args); err != nil {
			return err
		}
		return runBench(w, p)
	}
	return c
}

func runBench(w io.Writer, p benchParams) error {
	rp := newReporter(w, p.reportJSON)
	opt := benchsuite.DefaultOptions()
	if p.short {
		opt = benchsuite.ShortOptions()
	}
	areas := benchsuite.Areas()
	if p.area != "" {
		if len(benchsuite.ByArea(p.area)) == 0 {
			return fmt.Errorf("unknown bench area %q (have %s)", p.area, strings.Join(areas, ", "))
		}
		areas = []string{p.area}
	}
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return err
	}
	measured := 0
	for _, area := range areas {
		s := benchsnap.New(area)
		for _, bn := range benchsuite.ByArea(area) {
			if !strings.Contains(bn.Name, p.caseFilter) {
				continue
			}
			c, err := benchsuite.Measure(bn, opt)
			if err != nil {
				return err
			}
			s.Cases = append(s.Cases, c)
			fmt.Fprintf(rp.text(), "%-34s %10d iters %12.0f ns/op %12.0f B/op %8.0f allocs/op  C1=%d C2=%d\n",
				c.Name, c.Iters, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp, c.C1, c.C2)
		}
		if len(s.Cases) == 0 {
			continue
		}
		measured += len(s.Cases)
		data, err := s.Canonical()
		if err != nil {
			return err
		}
		// The write path round-trips through Parse so a snapshot that
		// fails its own schema can never reach disk.
		if _, err := benchsnap.Parse(data); err != nil {
			return fmt.Errorf("snapshot for area %q fails its own schema: %w", area, err)
		}
		path := filepath.Join(p.out, benchsnap.Filename(area))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(rp.text(), "wrote %s (%d cases)\n", path, len(s.Cases))
		t := &cli.Table{Name: "bench-" + area, Columns: []string{
			"name", "iters", "ns_per_op", "bytes_per_op", "allocs_per_op", "c1", "c2",
		}}
		for _, c := range s.Cases {
			t.AddRow(c.Name, fmt.Sprint(c.Iters), fmt.Sprintf("%.0f", c.NsPerOp),
				fmt.Sprintf("%.0f", c.BytesPerOp), fmt.Sprintf("%.0f", c.AllocsPerOp),
				fmt.Sprint(c.C1), fmt.Sprint(c.C2))
		}
		rp.add(t)
	}
	if measured == 0 {
		return fmt.Errorf("no bench cases match -area %q -case %q", p.area, p.caseFilter)
	}
	return rp.flush()
}

type compareParams struct {
	ns         float64
	bytes      float64
	allocs     float64
	selftest   bool
	reportJSON bool
}

func newCompareCmd() *command {
	fs := newFlagSet("compare")
	var p compareParams
	def := benchsnap.DefaultThresholds()
	fs.Float64Var(&p.ns, "ns-threshold", def.Ns, "allowed fractional ns/op growth (0.25 = +25%)")
	fs.Float64Var(&p.bytes, "bytes-threshold", def.Bytes, "allowed fractional B/op growth")
	fs.Float64Var(&p.allocs, "alloc-threshold", def.Allocs, "allowed fractional allocs/op growth")
	fs.BoolVar(&p.selftest, "selftest", false, "inject a synthetic ns/op regression into <old.json> and require compare to catch it")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "compare", summary: "diff two bench snapshots, non-zero exit on regression", fs: fs}
	c.exec = func(args []string, w io.Writer) error {
		if err := fs.Parse(args); err != nil {
			return err
		}
		return runCompare(w, p, fs.Args())
	}
	return c
}

func runCompare(w io.Writer, p compareParams, args []string) error {
	th := benchsnap.Thresholds{Ns: p.ns, Bytes: p.bytes, Allocs: p.allocs}
	rp := newReporter(w, p.reportJSON)
	if p.selftest {
		if len(args) != 1 {
			return fmt.Errorf("usage: bruckctl compare -selftest <snapshot.json>")
		}
		return runCompareSelftest(rp, args[0], th)
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: bruckctl compare [flags] <old.json> <new.json>")
	}
	oldSnap, err := readSnapshot(args[0])
	if err != nil {
		return err
	}
	newSnap, err := readSnapshot(args[1])
	if err != nil {
		return err
	}
	regs, err := benchsnap.Compare(oldSnap, newSnap, th)
	if err != nil {
		return err
	}
	t := &cli.Table{Name: "regressions", Columns: []string{"case", "metric", "old", "new", "allowed_frac"}}
	for _, r := range regs {
		fmt.Fprintf(rp.text(), "REGRESSION %s\n", r)
		t.AddRow(r.Case, r.Metric, fmt.Sprintf("%.6g", r.Old), fmt.Sprintf("%.6g", r.New), fmt.Sprintf("%.3g", r.Threshold))
	}
	rp.add(t)
	if len(regs) == 0 {
		fmt.Fprintf(rp.text(), "ok: %s within thresholds of %s (%d cases)\n", args[1], args[0], len(oldSnap.Cases))
	}
	if err := rp.flush(); err != nil {
		return err
	}
	if len(regs) > 0 {
		return fmt.Errorf("%d regressions against %s", len(regs), args[0])
	}
	return nil
}

// runCompareSelftest is the negative control: a copy of the snapshot
// with one ns/op value inflated past the threshold must FAIL the
// comparison, proving the gate detects what it claims to.
func runCompareSelftest(rp *reporter, path string, th benchsnap.Thresholds) error {
	s, err := readSnapshot(path)
	if err != nil {
		return err
	}
	if len(s.Cases) == 0 {
		return fmt.Errorf("%s has no cases to perturb", path)
	}
	perturbed := *s
	perturbed.Cases = append([]benchsnap.Case(nil), s.Cases...)
	perturbed.Cases[0].NsPerOp *= 1 + 2*(th.Ns+1)
	regs, err := benchsnap.Compare(s, &perturbed, th)
	if err != nil {
		return err
	}
	if len(regs) == 0 {
		return fmt.Errorf("selftest: injected ns/op regression in %q passed the comparison", s.Cases[0].Name)
	}
	fmt.Fprintf(rp.text(), "ok: selftest detected the injected regression (%s)\n", regs[0])
	kv := cli.KV("compare-selftest")
	kv.Add("snapshot", path)
	kv.Add("perturbed_case", s.Cases[0].Name)
	kv.Add("detected", true)
	rp.add(kv)
	return rp.flush()
}

func readSnapshot(path string) (*benchsnap.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := benchsnap.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
