package main

import (
	"strings"
	"testing"
)

func TestRunIndexDefault(t *testing.T) {
	for _, c := range []struct {
		p    params
		want []string
	}{
		{params{op: "index", n: 8, k: 1, b: 16},
			[]string{"index: n=8", "C1 = 3 rounds", "lower bound 3", "verified against the direct reference", "model time"}},
		{params{op: "index", n: 16, k: 1, crossover: true},
			[]string{"segment crossover study: n=16 k=1 r=2 segments=segmented(auto)", "crossover: segmented schedule wins from b = 32 bytes"}},
	} {
		var sb strings.Builder
		if err := runOp(&sb, c.p); err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("%+v: output lacks %q:\n%s", c.p, want, sb.String())
			}
		}
	}
}

func TestRunIndexAutoRadix(t *testing.T) {
	var sb strings.Builder
	if err := runOp(&sb, params{op: "index", n: 16, k: 1, b: 4096, radix: "auto"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tuned radix:") {
		t.Errorf("missing tuned radix line:\n%s", sb.String())
	}
}

func TestRunConcatOptimal(t *testing.T) {
	var sb strings.Builder
	if err := runOp(&sb, params{op: "concat", n: 17, k: 2, b: 64}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "C1 = 3 rounds   (lower bound 3)") {
		t.Errorf("concat not round-optimal:\n%s", out)
	}
	if !strings.Contains(out, "C2 = 512 bytes    (lower bound 512)") {
		t.Errorf("concat not volume-optimal:\n%s", out)
	}
	if !strings.Contains(out, "verified against the direct reference") {
		t.Errorf("concat output not verified:\n%s", out)
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
		var sb strings.Builder
		if err := runOp(&sb, p); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
		if !strings.Contains(sb.String(), "verified against the direct reference") {
			t.Errorf("%+v: output not verified:\n%s", p, sb.String())
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
		var sb strings.Builder
		if err := runOp(&sb, p); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if !strings.Contains(sb.String(), "transport=slot") {
			t.Errorf("%+v: output lacks transport=slot:\n%s", p, sb.String())
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
		var sb strings.Builder
		if err := runOp(&sb, p); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		out := sb.String()
		for _, want := range []string{
			"ragged " + p.op + " study", "C2 lower bound",
			"auto dispatch picked:", "byte-identical",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%+v: output lacks %q:\n%s", p, want, out)
			}
		}
	}
}

// TestRunRaggedHeavySkewZeroBlocks: a steep skew produces zero-length
// blocks and the study must still verify.
func TestRunRaggedHeavySkewZeroBlocks(t *testing.T) {
	var sb strings.Builder
	if err := runOp(&sb, params{op: "index", n: 16, k: 1, b: 8, ragged: 3.0}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "zero-length blocks") || strings.Contains(out, "zero-length blocks 0,") {
		t.Errorf("steep skew should produce zero-length blocks:\n%s", out)
	}
	if !strings.Contains(out, "byte-identical") {
		t.Errorf("study did not verify:\n%s", out)
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
		var sb strings.Builder
		if err := runOp(&sb, p); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		out := sb.String()
		for _, want := range []string{p.op + ":", "lower bound", "serial reference reduce: ok"} {
			if !strings.Contains(out, want) {
				t.Errorf("%+v: output lacks %q:\n%s", p, want, out)
			}
		}
	}
	var sb strings.Builder
	if err := runOp(&sb, params{op: "allreduce", n: 8, k: 1, b: 16, alg: "auto", kernel: "sum:int32"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "auto dispatch picked:") {
		t.Errorf("auto run lacks the dispatch line:\n%s", sb.String())
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
		var sb strings.Builder
		if err := runOp(&sb, params{op: op, n: 9, k: 2, b: 64}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		for _, want := range []string{op + ": n=9 k=2 b=64 alg=tree", "C1 = 2 rounds   (lower bound 2)", "verified against the direct reference"} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", op, want, sb.String())
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
