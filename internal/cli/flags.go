package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"bruck/internal/mpsim"
)

// Canonical flag names shared by the bruckctl subcommands. The old
// free-standing tools drifted (-r vs -radix, two incompatible -fig
// vocabularies); every subcommand now registers these exact names, and
// a table test in cmd/bruckctl pins the set per subcommand.
const (
	FlagN          = "n"           // number of processors
	FlagBytes      = "b"           // block size in bytes
	FlagPorts      = "k"           // ports per processor
	FlagRadix      = "radix"       // algorithm radix (alias: -r)
	FlagRadixAlias = "r"           // short alias for -radix
	FlagFig        = "fig"         // paper figure/table selector
	FlagCase       = "case"        // substring case filter
	FlagCSV        = "csv"         // emit CSV instead of the text table
	FlagReportJSON = "report-json" // emit the JSON report form
	FlagChaosSeed  = "chaos-seed"  // chaos jitter seed; >= 1 selects the chaos transport
	FlagStragglers = "stragglers"  // comma-separated straggler ranks (chaos only)
)

// TransportFlags is the canonical -chaos-seed/-stragglers flag block.
// A plain machine has no transport to pick, so the one choice is chaos
// or not. Every subcommand that constructs a simulated machine
// registers it, so the chaos vocabulary cannot drift between tools
// again.
type TransportFlags struct {
	ChaosSeed  uint64
	Stragglers string
}

// RegisterTransportFlags registers the canonical transport flag block
// on fs and returns the bound value struct.
func RegisterTransportFlags(fs *flag.FlagSet) *TransportFlags {
	tf := &TransportFlags{}
	fs.Uint64Var(&tf.ChaosSeed, FlagChaosSeed, 0, "run on the chaos transport with this jitter seed (>= 1; 0 runs plain)")
	fs.StringVar(&tf.Stragglers, FlagStragglers, "", "comma-separated straggler ranks for the chaos transport (needs -"+FlagChaosSeed+")")
	return tf
}

// EngineOptions translates the flag block into engine options: none
// for a plain machine, WithChaos (seed, stragglers) when -chaos-seed is
// set. -stragglers without it is an error rather than a silent no-op.
func (tf *TransportFlags) EngineOptions() ([]mpsim.Option, error) {
	if tf.ChaosSeed == 0 {
		if tf.Stragglers != "" {
			return nil, fmt.Errorf("-%s requires -%s", FlagStragglers, FlagChaosSeed)
		}
		return nil, nil
	}
	stragglers, err := ParseStragglers(tf.Stragglers)
	if err != nil {
		return nil, err
	}
	return []mpsim.Option{mpsim.WithChaos(mpsim.ChaosConfig{Seed: tf.ChaosSeed, Stragglers: stragglers})}, nil
}

// ParseStragglers parses the comma-separated rank list of -stragglers.
// An empty string yields a nil slice.
func ParseStragglers(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var ranks []int
	for _, f := range strings.Split(s, ",") {
		rank, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad straggler rank %q: %w", f, err)
		}
		ranks = append(ranks, rank)
	}
	return ranks, nil
}

// RadixFlag registers the canonical -radix flag together with its -r
// alias on fs; both write the same value. def is the default.
func RadixFlag(fs *flag.FlagSet, def int, usage string) *int {
	r := fs.Int(FlagRadix, def, usage)
	fs.IntVar(r, FlagRadixAlias, def, usage+" (alias for -"+FlagRadix+")")
	return r
}
