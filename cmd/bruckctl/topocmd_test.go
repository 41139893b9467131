package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"bruck/internal/cli"
)

// TestRunTopology: the -topology path executes and verifies the
// hierarchical schedule of each supported operation and reports the
// per-phase and per-level breakdown.
func TestRunTopology(t *testing.T) {
	for _, p := range []params{
		{op: "index", k: 1, b: 16, topology: "4x4"},
		{op: "index", k: 2, b: 8, topology: "3,3,3"},
		{op: "concat", k: 1, b: 8, topology: "4,4,3"},
		{op: "allreduce", k: 1, b: 16, topology: "4x4", kernel: "sum:int32"},
	} {
		tables := runOK(t, p)
		// The profile names and the critical path used to be text-only.
		for _, key := range []string{
			"intra_c1", "inter_c1", "model_hier", "winner", "intra_profile", "inter_profile", "critical_path_topology",
		} {
			if value(t, tables, "topology-run", key) == "" {
				t.Errorf("%+v: %s is empty", p, key)
			}
		}
		if len(find(t, tables, "topology-phases").Rows) < 3 {
			t.Errorf("%+v: fewer than 3 phases", p)
		}
	}
}

// TestRunTopologyCustomProfiles: an explicit per-class profile pair in
// the spec reaches the run.
func TestRunTopologyCustomProfiles(t *testing.T) {
	tables := runOK(t, params{op: "concat", k: 1, b: 4, topology: "2x4:29e-6,0.117e-6/29e-5,0.117e-5"})
	if got := value(t, tables, "topology-run", "n"); got != "8" {
		t.Errorf("spec should size the machine at 8, got n = %q", got)
	}
}

// TestRunTopologyTransports: the hierarchical run works on a plain
// machine and under chaos with stragglers, and names the seed it ran.
func TestRunTopologyTransports(t *testing.T) {
	for _, p := range []params{
		{op: "index", k: 1, b: 8, topology: "4x2"},
		{op: "index", k: 1, b: 8, topology: "4x2", chaosSeed: 7, stragglers: "2,3"},
	} {
		if got := value(t, runOK(t, p), "topology-run", "chaos_seed"); got != fmt.Sprint(p.chaosSeed) {
			t.Errorf("%+v: chaos_seed = %q", p, got)
		}
	}
}

// TestRunTopologyJSON: -report-json emits the topology-run section and
// one phase row per compiled phase.
func TestRunTopologyJSON(t *testing.T) {
	var sb strings.Builder
	if err := runOp(&sb, params{op: "index", k: 1, b: 8, topology: "4x4", reportJSON: true}); err != nil {
		t.Fatal(err)
	}
	var sections []*cli.Table
	if err := json.Unmarshal([]byte(sb.String()), &sections); err != nil {
		t.Fatalf("-report-json output is not JSON: %v\n%s", err, sb.String())
	}
	if len(find(t, sections, "topology-run").Rows) == 0 || len(find(t, sections, "topology-phases").Rows) < 3 {
		t.Errorf("topology-run or its phase rows missing:\n%s", sb.String())
	}
}

// TestRunTopologyErrors: malformed specs and unsupported operations.
func TestRunTopologyErrors(t *testing.T) {
	var sb strings.Builder
	if err := runOp(&sb, params{op: "index", k: 1, b: 8, topology: "nonsense"}); err == nil {
		t.Error("bad topology spec accepted")
	}
	if err := runOp(&sb, params{op: "reducescatter", k: 1, b: 8, topology: "4x4", kernel: "sum:int32"}); err == nil {
		t.Error("-topology with reducescatter accepted")
	}
	if err := runOp(&sb, params{op: "allreduce", k: 1, b: 8, topology: "4x4", kernel: "nonsense"}); err == nil {
		t.Error("bad kernel accepted")
	}
	if err := runOp(&sb, params{op: "allreduce", k: 1, b: 8, topoCross: true, kernel: "sum:int32"}); err == nil {
		t.Error("-crossover-topology with allreduce accepted")
	}
}

// TestRunTopoCrossover: the sweep tabulates the study and one summary
// row per (n, ratio) pair.
func TestRunTopoCrossover(t *testing.T) {
	tables := runOK(t, params{op: "index", k: 1, topoCross: true})
	// The headline claim of the study: at a 10:1 ratio and n=16 the
	// hierarchical schedule wins the latency-bound end of the sweep.
	hierWon := false
	for _, row := range find(t, tables, "topology-crossover").Rows {
		if row[1] == "16" && row[5] == "10" && row[len(row)-1] == "hier" {
			hierWon = true
		}
	}
	if !hierWon {
		t.Error("no hierarchical win at n=16 ratio=10")
	}
	if got := len(find(t, tables, "topology-crossover-summary").Rows); got != 16 {
		t.Errorf("summary has %d rows, want one per (n, ratio) = 16", got)
	}
}
