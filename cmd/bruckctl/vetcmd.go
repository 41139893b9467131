// The vet subcommand statically verifies the golden corpus without
// executing anything: it recompiles every corpus case and runs
// Plan.Check over its step program — a symbolic delivery proof for all
// 22 cases, formula-driven, ragged, reducing and hierarchical ones
// included — runs the schedule verifier (internal/analysis/schedcheck)
// over the committed artifact, and cross-checks the two — the
// artifact's header must agree with the plan it claims to describe.
//
//	bruckctl vet [-dir d] [-case substr] [-perturb] [-report-json]
//
// Where `bruckctl trace verify` proves a live run still matches the
// committed schedule, vet proves the schedule itself is well-formed:
// k-port limits, byte accounting, complexity recomputation, and the
// delivery simulation that shows the program realizes the collective.
// -perturb is the negative self-test: it structurally perturbs each
// artifact after parsing and succeeds only if every case is then
// rejected.
package main

import (
	"fmt"
	"io"
	"os"

	"bruck/internal/analysis/schedcheck"
	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/golden"
	"bruck/internal/trace"
)

func newVetCmd() *command {
	fs := newFlagSet("vet")
	dir := fs.String("dir", defaultTraceDir(), "golden artifact directory")
	caseFilter := fs.String(cli.FlagCase, "", "only cases whose name contains this substring")
	perturb := fs.Bool("perturb", false, "perturb each artifact and require verification to fail")
	reportJSON := fs.Bool(cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "vet", summary: "statically verify compiled plans and golden artifacts", fs: fs}
	c.exec = func(args []string, w io.Writer) error {
		if err := fs.Parse(args); err != nil {
			return err
		}
		return vetRun(*dir, *caseFilter, *perturb, *reportJSON, w)
	}
	return c
}

func vetRun(dir, caseFilter string, perturb, reportJSON bool, out io.Writer) error {
	return reporter{out, false, reportJSON}.flush(corpusTable("vet", caseFilter, func(c golden.Case) (string, string, error) {
		violations, err := vetCase(dir, c, perturb)
		status, detail := verdict(perturb, violations, "artifact passed static verification", "violations")
		return status, detail, err
	}))
}

// vetCase statically verifies one corpus case: the plan's program, the
// committed artifact, and the agreement between them.
func vetCase(dir string, c golden.Case, perturb bool) ([]string, error) {
	pl, err := golden.Compile(c)
	if err != nil {
		return nil, err
	}
	var violations []string
	if !perturb {
		for _, v := range pl.Check() {
			violations = append(violations, "plan: "+v)
		}
	}

	data, err := os.ReadFile(golden.Path(dir, c))
	if err != nil {
		return nil, fmt.Errorf("vet: no artifact for case %s (run `bruckctl trace record`): %w", c.Name, err)
	}
	s, err := trace.ParseSchedule(data)
	if err != nil {
		return nil, fmt.Errorf("vet: case %s: %w", c.Name, err)
	}
	if perturb {
		vetPerturb(s)
	}
	for _, v := range schedcheck.Verify(s) {
		violations = append(violations, "artifact: "+v)
	}
	violations = append(violations, vetCrossCheck(pl, s, c)...)
	return violations, nil
}

// vetPerturb injects the structural drift the verifier must catch. A
// hierarchical artifact is perturbed across the level dimension — an
// inter-group transfer displaced into an intra phase, which the
// link-class discipline must reject. For flat artifacts the shared
// golden.Perturb bump can coincidentally keep C2 consistent (when the
// bumped send was the unique round maximum), so vet drops a send
// instead — breaking the pattern count on populated schedules — and
// falls back to the meta bump for message-free ones.
func vetPerturb(s *trace.Schedule) {
	if golden.PerturbPhase(s) {
		return
	}
	for i := range s.Rounds {
		if len(s.Rounds[i].Sends) > 0 {
			s.Rounds[i].Sends = s.Rounds[i].Sends[:len(s.Rounds[i].Sends)-1]
			return
		}
	}
	s.C1++
}

// vetCrossCheck verifies the artifact header describes the compiled
// plan: same operation, shape and predicted complexity.
func vetCrossCheck(pl *collective.Plan, s *trace.Schedule, c golden.Case) []string {
	var v []string
	if s.Op != pl.Op() {
		v = append(v, fmt.Sprintf("cross: artifact op %q, plan compiles %q", s.Op, pl.Op()))
	}
	if s.N != c.N || s.K != c.K {
		v = append(v, fmt.Sprintf("cross: artifact shape n=%d k=%d, case is n=%d k=%d", s.N, s.K, c.N, c.K))
	}
	if s.BlockLen != pl.BlockLen() {
		v = append(v, fmt.Sprintf("cross: artifact blockLen %d, plan compiled for %d", s.BlockLen, pl.BlockLen()))
	}
	if s.C1 != pl.Rounds() {
		v = append(v, fmt.Sprintf("cross: artifact c1=%d, plan predicts %d rounds", s.C1, pl.Rounds()))
	}
	if s.C2 != pl.PredictedC2() {
		v = append(v, fmt.Sprintf("cross: artifact c2=%d, plan predicts %d", s.C2, pl.PredictedC2()))
	}
	return v
}
