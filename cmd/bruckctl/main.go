// Command bruckctl is the repo's single CLI: every tool that used to be
// a free-standing binary is a subcommand sharing one flag vocabulary
// (internal/cli) and one table/CSV/JSON renderer.
//
//	bruckctl run     -op index -n 64 -b 128 -radix 8      # one collective, measured
//	bruckctl index   -fig 4|5|6 | -tune                   # Section 3.5 index figures
//	bruckctl concat  -bounds | -optimality | -baselines   # Sections 2/4 concat tables
//	bruckctl figures -fig 1|2|3|7|8|9 | -table 1 | -all   # structural figures, byte-verified
//	bruckctl trace   record|verify                        # golden program corpus
//	bruckctl vet     [-case substr]                       # static plan verification (Plan.Check)
//
// A study returns tables and report.go prints them: as text by default,
// as CSV under index -csv, as one JSON document under -report-json,
// which every subcommand accepts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// command is one bruckctl subcommand: its flag set (registered up
// front, so the canonical-vocabulary test can audit it without running
// anything) and its entry point, which dispatch calls with the
// arguments left after parsing the flags.
type command struct {
	name    string
	summary string
	fs      *flag.FlagSet
	exec    func(args []string, w io.Writer) error
}

// newFlagSet returns a subcommand flag set with the shared error mode.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("bruckctl "+name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors surface through the returned error
	return fs
}

// newCommands builds the full subcommand registry. Each invocation
// constructs fresh commands, so flag state never leaks between calls.
func newCommands() []*command {
	return []*command{
		newRunCmd(),
		newIndexCmd(),
		newConcatCmd(),
		newFiguresCmd(),
		newTraceCmd(),
		newVetCmd(),
	}
}

// dispatch resolves args[0] to a subcommand and runs it.
func dispatch(args []string, w io.Writer) error {
	if len(args) == 0 {
		return usageError(w)
	}
	name := args[0]
	if name == "help" || name == "-h" || name == "-help" || name == "--help" {
		printUsage(w)
		return nil
	}
	for _, c := range newCommands() {
		if c.name != name {
			continue
		}
		err := c.fs.Parse(args[1:])
		if err == nil {
			err = c.exec(c.fs.Args(), w)
		}
		if errors.Is(err, flag.ErrHelp) { // -h: the flags, which the flag set itself prints to io.Discard
			fmt.Fprintf(w, "usage of bruckctl %s:\n", name)
			c.fs.SetOutput(w)
			c.fs.PrintDefaults()
			return nil
		}
		return err
	}
	return usageError(w)
}

func usageError(w io.Writer) error {
	printUsage(w)
	return fmt.Errorf("usage: bruckctl <subcommand> [flags]")
}

func printUsage(w io.Writer) {
	fmt.Fprintln(w, "bruckctl — multiport collective tools (Bruck et al., SPAA 1994)")
	fmt.Fprintln(w, "\nsubcommands:")
	cmds := newCommands()
	sort.Slice(cmds, func(i, j int) bool { return cmds[i].name < cmds[j].name })
	for _, c := range cmds {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nrun 'bruckctl <subcommand> -h' for flags; every subcommand accepts -report-json")
}

func main() {
	if err := dispatch(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bruckctl:", err)
		os.Exit(1)
	}
}
