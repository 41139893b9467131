package main

import (
	"flag"
	"reflect"
	"sort"
	"testing"
)

// TestCanonicalFlagVocabulary pins each subcommand's registered flag
// set. The old free-standing tools drifted (-r vs -radix, two
// incompatible -fig vocabularies); any flag added, renamed or dropped
// must update this table deliberately.
func TestCanonicalFlagVocabulary(t *testing.T) {
	want := map[string][]string{
		"run": {"alg", "b", "chaos-inner", "chaos-seed", "crossover-segments", "crossover-topology",
			"k", "kernel", "n", "op", "r", "radix", "ragged", "report-json",
			"segments", "stragglers", "topology", "transport"},
		"index":   {"csv", "fig", "k", "n", "report-json", "tune"},
		"concat":  {"b", "baselines", "bounds", "optimality", "report-json"},
		"figures": {"all", "fig", "n", "r", "radix", "report-json", "table", "transport"},
		"trace": {"case", "chaos-inner", "chaos-seed", "dir", "report-json",
			"stragglers", "transport"},
		"vet": {"case", "report-json"},
	}
	cmds := newCommands()
	if len(cmds) != len(want) {
		t.Fatalf("registry has %d subcommands, table has %d", len(cmds), len(want))
	}
	for _, c := range cmds {
		var got []string
		c.fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		sort.Strings(got)
		if !reflect.DeepEqual(got, want[c.name]) {
			t.Errorf("%s flags = %v, want %v", c.name, got, want[c.name])
		}
	}
}

// TestRadixAliasParity: -r and -radix write the same value on every
// subcommand that accepts a radix.
func TestRadixAliasParity(t *testing.T) {
	for _, args := range [][]string{
		{"-radix", "4"},
		{"-r", "4"},
	} {
		fs := newFlagSet("figures")
		var p figuresParams
		fs.IntVar(&p.r, "radix", 2, "")
		fs.IntVar(&p.r, "r", 2, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if p.r != 4 {
			t.Errorf("parse(%v): radix = %d, want 4", args, p.r)
		}
	}
}
