package main

import (
	"strings"
	"testing"

	"bruck/internal/cli"
)

// runOK runs one study and returns its tables.
func runOK(t *testing.T, p params) []*cli.Table {
	t.Helper()
	tables, err := runTables(p)
	if err != nil {
		t.Fatalf("%+v: %v", p, err)
	}
	return tables
}

func TestRunIndexDefault(t *testing.T) {
	tables := runOK(t, params{op: "index", n: 8, k: 1, b: 16})
	for key, want := range map[string]string{
		"op": "index", "n": "8", "c1": "3", "c1_lower_bound": "3", "verified_direct_reference": "true",
		"model_sp1_linear": "109.588µs", "critical_path_sp1": "109.588µs",
	} {
		if got := value(t, tables, "run", key); got != want {
			t.Errorf("run %s = %q, want %q", key, got, want)
		}
	}
	tables = runOK(t, params{op: "index", n: 16, k: 1, crossover: true})
	for key, want := range map[string]string{"n": "16", "k": "1", "radix": "2", "segments": "segmented(auto)", "crossover_b": "32"} {
		if got := value(t, tables, "segment-crossover", key); got != want {
			t.Errorf("segment-crossover %s = %q, want %q", key, got, want)
		}
	}
}

func TestRunIndexAutoRadix(t *testing.T) {
	tables := runOK(t, params{op: "index", n: 16, k: 1, b: 4096, radix: "auto"})
	if got := value(t, tables, "run", "tuned_radix"); got == "" || got == "2" {
		t.Errorf("tuned_radix = %q, want a large radix at b = 4096", got)
	}
}

func TestRunConcatOptimal(t *testing.T) {
	tables := runOK(t, params{op: "concat", n: 17, k: 2, b: 64})
	for key, want := range map[string]string{
		"c1": "3", "c1_lower_bound": "3", "c2": "512", "c2_lower_bound": "512", "verified_direct_reference": "true",
	} {
		if got := value(t, tables, "run", key); got != want {
			t.Errorf("concat %s = %q, want %q", key, got, want)
		}
	}
	// The folklore gather's truncated subtrees at n = 7 run ahead of the
	// root: its critical path is under the linear model.
	tables = runOK(t, params{op: "concat", alg: "folklore", n: 7, k: 1, b: 64})
	for key, want := range map[string]string{"model_sp1_linear": "377.294µs", "critical_path_sp1": "333.235µs"} {
		if got := value(t, tables, "run", key); got != want {
			t.Errorf("folklore %s = %q, want %q", key, got, want)
		}
	}
}

func TestRunAlgorithmVariants(t *testing.T) {
	for _, p := range []params{
		{op: "index", n: 8, k: 1, b: 8, alg: "direct"},
		{op: "index", n: 8, k: 1, b: 8, alg: "xor"},
		{op: "concat", n: 8, k: 1, b: 8, alg: "folklore"},
		{op: "concat", n: 8, k: 1, b: 8, alg: "ring"},
		{op: "concat", n: 8, k: 1, b: 8, alg: "recdbl"},
		{op: "index", n: 16, k: 1, b: 4096, segments: "4", transport: "slot"},
	} {
		if got := value(t, runOK(t, p), "run", "verified_direct_reference"); got != "true" {
			t.Errorf("%+v: output not verified", p)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := runOp(&sb, params{op: "nonsense", n: 4, k: 1, b: 8}); err == nil {
		t.Error("unknown op accepted")
	}
	if err := runOp(&sb, params{op: "index", n: 4, k: 1, b: 8, alg: "nonsense"}); err == nil {
		t.Error("unknown index alg accepted")
	}
	if err := runOp(&sb, params{op: "concat", n: 4, k: 1, b: 8, alg: "nonsense"}); err == nil {
		t.Error("unknown concat alg accepted")
	}
	if err := runOp(&sb, params{op: "index", n: 4, k: 1, b: 8, radix: "xyz"}); err == nil {
		t.Error("bad radix accepted")
	}
	if err := runOp(&sb, params{op: "index", n: 0, k: 1, b: 8}); err == nil {
		t.Error("n=0 accepted")
	}
	if err := runOp(&sb, params{op: "index", n: 4, k: 1, b: 8, transport: "pigeon"}); err == nil {
		t.Error("unknown transport accepted")
	}
}

func TestRunSlotTransport(t *testing.T) {
	for _, p := range []params{
		{op: "index", n: 8, k: 1, b: 16, transport: "slot"},
		{op: "concat", n: 9, k: 2, b: 16, transport: "slot"},
	} {
		if got := value(t, runOK(t, p), "run", "transport"); got != "slot" {
			t.Errorf("%+v: transport = %q, want slot", p, got)
		}
	}
}

// TestRunRaggedStudy: the skewed-size study runs all candidate
// schedules, verifies them against the local reference, and reports the
// auto dispatch's pick, for both operations and transports.
func TestRunRaggedStudy(t *testing.T) {
	for _, p := range []params{
		{op: "index", n: 12, k: 1, b: 48, ragged: 1.2},
		{op: "index", n: 9, k: 2, b: 32, ragged: 2.0, transport: "slot"},
		{op: "concat", n: 11, k: 1, b: 40, ragged: 1.5},
		{op: "concat", n: 8, k: 3, b: 24, ragged: 0.7, transport: "slot"},
	} {
		tables := runOK(t, p)
		if value(t, tables, "ragged-study", "c2_lower_bound") == "" || value(t, tables, "ragged-study", "byte_identical") != "true" {
			t.Errorf("%+v: study lacks its bound or did not verify", p)
		}
		names := column(t, find(t, tables, "schedules"), "schedule")
		if last := names[len(names)-1]; last != "auto (SP-1)" || value(t, tables, "ragged-study", "auto_pick") == "" {
			t.Errorf("%+v: schedules %v lack the auto dispatch", p, names)
		}
	}
}

// TestRunRaggedHeavySkewZeroBlocks: a steep skew produces zero-length
// blocks and the study must still verify.
func TestRunRaggedHeavySkewZeroBlocks(t *testing.T) {
	tables := runOK(t, params{op: "index", n: 16, k: 1, b: 8, ragged: 3.0})
	if got := value(t, tables, "ragged-study", "zero_length_blocks"); got == "" || got == "0" {
		t.Errorf("steep skew should produce zero-length blocks, got %q", got)
	}
	if value(t, tables, "ragged-study", "byte_identical") != "true" {
		t.Error("study did not verify")
	}
}

// TestRunReduceOps: both reduction operations across algorithms,
// kernels and transports, each verified against the serial reference
// inside run.
func TestRunReduceOps(t *testing.T) {
	for _, p := range []params{
		{op: "reducescatter", n: 8, k: 1, b: 16, kernel: "sum:int32"},
		{op: "reducescatter", n: 8, k: 1, b: 16, alg: "halving", kernel: "min:float64"},
		{op: "reducescatter", n: 9, k: 2, b: 16, alg: "bruck", radix: "3", kernel: "max:int64", transport: "slot"},
		{op: "allreduce", n: 8, k: 1, b: 16, kernel: "sum:float32"},
		{op: "allreduce", n: 12, k: 2, b: 24, alg: "auto", kernel: "sum:int32", transport: "slot"},
		{op: "allreduce", n: 8, k: 1, b: 256, alg: "bruck", radix: "2", segments: "auto", kernel: "sum:int32"},
	} {
		tables := runOK(t, p)
		for key, want := range map[string]string{"op": p.op, "kernel": p.kernel, "verified_serial_reference": "true"} {
			if got := value(t, tables, "reduce", key); got != want {
				t.Errorf("%+v: %s = %q, want %q", p, key, got, want)
			}
		}
		// The model times used to be missing from a reduction's JSON.
		if value(t, tables, "reduce", "c1_lower_bound") == "" || value(t, tables, "reduce", "model_sp1_linear") == "" {
			t.Errorf("%+v: report lacks the bound or the model time", p)
		}
	}
	tables := runOK(t, params{op: "allreduce", n: 8, k: 1, b: 16, alg: "auto", kernel: "sum:int32"})
	if pick := value(t, tables, "reduce", "auto_pick"); pick == "" || pick != value(t, tables, "reduce", "alg") {
		t.Errorf("auto run lacks the dispatch's pick: %q", pick)
	}
}

// TestRunReduceErrors: kernel and algorithm parse failures.
func TestRunReduceErrors(t *testing.T) {
	var sb strings.Builder
	if err := runOp(&sb, params{op: "reducescatter", n: 4, k: 1, b: 16, kernel: "nonsense"}); err == nil {
		t.Error("bad kernel accepted")
	}
	if err := runOp(&sb, params{op: "reducescatter", n: 4, k: 1, b: 16, kernel: "sum:int13"}); err == nil {
		t.Error("bad element type accepted")
	}
	if err := runOp(&sb, params{op: "allreduce", n: 4, k: 1, b: 16, kernel: "sum:int32", alg: "nonsense"}); err == nil {
		t.Error("bad reduce algorithm accepted")
	}
	if err := runOp(&sb, params{op: "reducescatter", n: 6, k: 1, b: 16, kernel: "sum:int32", alg: "halving"}); err == nil {
		t.Error("halving on non-power-of-two accepted")
	}
	if err := runOp(&sb, params{op: "reducescatter", n: 4, k: 1, b: 10, kernel: "sum:int64"}); err == nil {
		t.Error("block size not divisible by element size accepted")
	}
}

// TestRunRootedOps: the one-to-all primitives run through the same
// path as every other operation, at root 0, and report the tree's
// round count against its lower bound.
func TestRunRootedOps(t *testing.T) {
	for _, op := range []string{"broadcast", "gather", "scatter"} {
		tables := runOK(t, params{op: op, n: 9, k: 2, b: 64})
		for key, want := range map[string]string{
			"op": op, "n": "9", "k": "2", "b": "64", "alg": "tree", "c1": "2", "c1_lower_bound": "2", "verified_direct_reference": "true",
		} {
			if got := value(t, tables, "run", key); got != want {
				t.Errorf("%s: %s = %q, want %q", op, key, got, want)
			}
		}
	}
}

// TestRunRejectsFlagsTheModeIgnores: a flag the selected mode does not
// read, or an operation it does not support, is an error naming both —
// each of these ran (or was mislabelled "unknown operation") before the
// mode table.
func TestRunRejectsFlagsTheModeIgnores(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ragged", "1.2", "-kernel", "max:int64"}, "-kernel does not apply to -ragged"},
		{[]string{"-ragged", "1.2", "-segments", "4"}, "-segments does not apply to -ragged"},
		{[]string{"-topology", "4x4", "-alg", "direct"}, "-alg does not apply to -topology"},
		{[]string{"-topology", "4x4", "-segments", "4"}, "-segments does not apply to -topology"},
		{[]string{"-op", "reducescatter", "-ragged", "1"},
			"-ragged does not apply to -op reducescatter: the ragged study supports -op index|concat"},
		{[]string{"-op", "concat", "-radix", "4"}, "-radix does not apply to -op concat"},
		{[]string{"-op", "index", "-kernel", "max:int64"}, "-kernel does not apply to -op index"},
		{[]string{"-op", "index", "-alg", "auto"}, "-alg auto does not apply to -op index"},
		{[]string{"-op", "index", "-n", "8", "-topology", "4x4"}, "-n does not apply to -topology"},
	} {
		var sb strings.Builder
		err := dispatch(append([]string{"run"}, c.args...), &sb)
		if err == nil || err.Error() != c.want {
			t.Errorf("run %v: error %v, want %q", c.args, err, c.want)
		}
	}
}
