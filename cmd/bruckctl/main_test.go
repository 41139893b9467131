package main

import (
	"encoding/json"
	"strings"
	"testing"

	"bruck/internal/cli"
)

func TestDispatchHelpAndErrors(t *testing.T) {
	var sb strings.Builder
	if err := dispatch([]string{"help"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, c := range newCommands() {
		if !strings.Contains(sb.String(), c.name) {
			t.Errorf("usage lacks subcommand %q:\n%s", c.name, sb.String())
		}
	}
	if err := dispatch(nil, &sb); err == nil {
		t.Error("empty argv accepted")
	}
	if err := dispatch([]string{"frobnicate"}, &sb); err == nil {
		t.Error("unknown subcommand accepted")
	}
	for _, args := range [][]string{{"run", "-no-such-flag"}, {"run", "-repeat", "2"}, {"bench"}, {"compare"}} {
		if err := dispatch(args, &sb); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestDispatchSubcommandHelp: -h on a subcommand prints its flags and
// succeeds, as the usage text promises. (It used to print nothing and
// fail with "flag: help requested", the flag set's output discarded.)
func TestDispatchSubcommandHelp(t *testing.T) {
	var sb strings.Builder
	if err := dispatch([]string{"run", "-h"}, &sb); err != nil {
		t.Fatalf("run -h: %v", err)
	}
	if !strings.Contains(sb.String(), "-op") {
		t.Errorf("run -h does not name -op:\n%s", sb.String())
	}
}

// TestDispatchRunTextMatchesDirectCall: the dispatcher is a thin shell
// over the same run functions the tests pin, with no extra output.
func TestDispatchRunTextMatchesDirectCall(t *testing.T) {
	var viaDispatch, direct strings.Builder
	if err := dispatch([]string{"run", "-op", "index", "-n", "8", "-b", "16"}, &viaDispatch); err != nil {
		t.Fatal(err)
	}
	if err := runOp(&direct, params{op: "index", n: 8, k: 1, b: 16, kernel: "sum:int32"}); err != nil {
		t.Fatal(err)
	}
	if viaDispatch.String() != direct.String() {
		t.Errorf("dispatch output diverges:\n%q\nvs\n%q", viaDispatch.String(), direct.String())
	}
}

// TestReportJSONWellFormed: -report-json yields a single JSON array of
// tables and suppresses the text form, on every subcommand that can run
// hermetically here.
func TestReportJSONWellFormed(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-op", "index", "-n", "8", "-b", "16", "-report-json"},
		{"run", "-op", "allreduce", "-n", "8", "-b", "16", "-alg", "auto", "-report-json"},
		{"run", "-op", "index", "-n", "8", "-b", "16", "-ragged", "1.2", "-report-json"},
		{"index", "-tune", "-n", "8", "-report-json"},
		{"concat", "-baselines", "-report-json"},
		{"figures", "-fig", "3", "-report-json"},
		{"trace", "verify", "-dir", "../../internal/golden/testdata/golden", "-report-json"},
	} {
		var sb strings.Builder
		if err := dispatch(args, &sb); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var tables []cli.Table
		if err := json.Unmarshal([]byte(sb.String()), &tables); err != nil {
			t.Fatalf("%v: not a JSON table array: %v\n%s", args, err, sb.String())
		}
		if len(tables) == 0 {
			t.Errorf("%v: empty report", args)
		}
		for _, tb := range tables {
			if tb.Name == "" || len(tb.Columns) == 0 {
				t.Errorf("%v: malformed table %+v", args, tb)
			}
		}
	}
}

// TestCSVAndReportJSONAreExclusive: the two machine formats cannot be
// combined.
func TestCSVAndReportJSONAreExclusive(t *testing.T) {
	var sb strings.Builder
	if err := dispatch([]string{"index", "-fig", "4", "-csv", "-report-json"}, &sb); err == nil {
		t.Error("-csv with -report-json accepted")
	}
}
