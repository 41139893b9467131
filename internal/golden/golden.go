// Package golden maintains the golden corpus: one representative case
// per schedule family, whose compiled program's listing
// (collective.Plan.Listing) is committed under testdata/golden/ and
// verified by the package tests, the chaos fuzzer and `bruckctl trace`.
// A mismatch means the program — rounds, partners, extents, message
// sizes — drifted from what was reviewed and committed; regenerate
// deliberately with `go test ./internal/golden -update` (or
// `bruckctl trace record`) and review the diff.
//
// Every capture runs the plan through the oracle (collective.Exercise),
// which compares every output block with the operation's definition,
// and requires the run to send exactly the messages the program
// predicts (Plan.Messages) — under any transport backend. A Case
// becomes a plan in one step, Case.spec.
package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// Case describes one golden-corpus configuration: a collective
// operation, schedule family and machine shape small enough to capture
// in milliseconds but rich enough to exercise the family's structure.
type Case struct {
	// Name is the artifact's base name (Path adds ".txt").
	Name string
	// Op and Alg are names collective.ParseSpec accepts: the operation,
	// and the schedule family within it ("" for the default), plus
	// "mixed" for the Bruck index under Radices.
	Op, Alg string
	// N, K, B: group size, ports, block size in bytes.
	N, K, B int
	// Radix is the Bruck radix (0 selects the default k+1).
	Radix int
	// Radices are the mixed-radix subphase radices (Alg "mixed").
	Radices []int
	// Ragged captures the layout (V) variant of the operation with a
	// deterministic skewed layout derived from (N, B).
	Ragged bool
	// Segments pipelines a packed Bruck schedule (index, or the
	// reduce-scatter phase of a reduction) into that many block spans;
	// 0 is monolithic.
	Segments int
	// Topology is the two-level topology spec ("4x4", "4,4,3") of a
	// hierarchical case: the case compiles the two-level composition on
	// that node-group structure (Alg is "hier", and N must equal the
	// spec's processor count). Empty for flat cases.
	Topology string
	// Root is the group rank a one-to-all primitive is rooted at.
	Root int
}

// Corpus returns the committed golden corpus: one representative case
// per schedule family across all five collective families (fixed-size
// index, fixed-size concat, ragged index, ragged concat, reductions).
func Corpus() []Case {
	return []Case{
		// Index family: the paper's Section 3 algorithm at two radices,
		// the mixed-radix generalization, and both baselines.
		{Name: "index-bruck-n8-k1-r2", Op: "index", Alg: "bruck", N: 8, K: 1, B: 4, Radix: 2},
		{Name: "index-bruck-n12-k3", Op: "index", Alg: "bruck", N: 12, K: 3, B: 4},
		{Name: "index-mixed-n12-k1", Op: "index", Alg: "mixed", N: 12, K: 1, B: 4, Radices: []int{2, 3, 2}},
		{Name: "index-direct-n8-k2", Op: "index", Alg: "direct", N: 8, K: 2, B: 4},
		{Name: "index-xor-n8-k2", Op: "index", Alg: "xor", N: 8, K: 2, B: 4},
		// Segment-pipelined index: even spans, and uneven spans (B % S
		// != 0) on a deeper schedule.
		{Name: "index-bruck-n8-k1-r2-s2", Op: "index", Alg: "bruck", N: 8, K: 1, B: 8, Radix: 2, Segments: 2},
		{Name: "index-bruck-n12-k1-r2-s3", Op: "index", Alg: "bruck", N: 12, K: 1, B: 7, Radix: 2, Segments: 3},
		// Concat family: the paper's Section 4 circulant algorithm (with
		// a byte-granular last round at n=11, k=2) and the baselines.
		{Name: "concat-circulant-n11-k2", Op: "concat", Alg: "circulant", N: 11, K: 2, B: 5},
		{Name: "concat-trivial-n5-k4", Op: "concat", Alg: "circulant", N: 5, K: 4, B: 4},
		{Name: "concat-folklore-n6-k2", Op: "concat", Alg: "folklore", N: 6, K: 2, B: 4},
		{Name: "concat-ring-n6-k1", Op: "concat", Alg: "ring", N: 6, K: 1, B: 4},
		{Name: "concat-recdbl-n8-k1", Op: "concat", Alg: "recdbl", N: 8, K: 1, B: 4},
		// Ragged layouts: skewed IndexV and ConcatV.
		{Name: "indexv-bruck-n6-k2", Op: "index", Alg: "bruck", N: 6, K: 2, B: 5, Ragged: true},
		{Name: "concatv-circulant-n7-k2", Op: "concat", Alg: "circulant", N: 7, K: 2, B: 5, Ragged: true},
		// Reductions: all three reduce-scatter schedules and a composed
		// allreduce.
		{Name: "reducescatter-ring-n6-k1", Op: "reduce-scatter", Alg: "ring", N: 6, K: 1, B: 8},
		{Name: "reducescatter-halving-n8-k1", Op: "reduce-scatter", Alg: "halving", N: 8, K: 1, B: 8},
		{Name: "reducescatter-bruck-n9-k2-r3", Op: "reduce-scatter", Alg: "bruck", N: 9, K: 2, B: 8, Radix: 3},
		{Name: "allreduce-bruck-n6-k2", Op: "allreduce", Alg: "bruck", N: 6, K: 2, B: 8},
		// Segment-pipelined reduce-scatter phase inside an allreduce.
		{Name: "allreduce-bruck-n8-k1-r2-s2", Op: "allreduce", Alg: "bruck", N: 8, K: 1, B: 8, Radix: 2, Segments: 2},
		// Hierarchical (two-level) compositions: intra phases, a
		// leader-routed inter phase and the redistribution, with the phase
		// table and link-class discipline proved by Plan.Check.
		{Name: "hier-index-4x4", Op: "index", Alg: "hier", N: 16, K: 1, B: 4, Topology: "4x4"},
		{Name: "hier-concat-4-4-3", Op: "concat", Alg: "hier", N: 11, K: 1, B: 4, Topology: "4,4,3"},
		{Name: "hier-allreduce-4x4", Op: "allreduce", Alg: "hier", N: 16, K: 1, B: 8, Topology: "4x4"},
	}
}

// Dir is the committed location of the golden corpus, relative to this
// package's directory (the working directory of its tests).
const Dir = "testdata/golden"

// Path returns the artifact path of a case under dir.
func Path(dir string, c Case) string {
	return filepath.Join(dir, c.Name+".txt")
}

// Write records a program listing as the case's golden artifact under
// dir, creating the directory as needed.
func Write(dir string, c Case, listing string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if err := os.WriteFile(Path(dir, c), []byte(listing), 0o644); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return nil
}

// Verify compares a live program listing with the case's committed
// artifact under dir: nil when they are byte-equal, else the first five
// differing lines; an error when the artifact is missing.
func Verify(dir string, c Case, listing string) ([]string, error) {
	data, err := os.ReadFile(Path(dir, c))
	if err != nil {
		return nil, fmt.Errorf("golden: no artifact for case %s (run with -update or `bruckctl trace record`): %w", c.Name, err)
	}
	got, want := strings.SplitAfter(listing, "\n"), strings.SplitAfter(string(data), "\n")
	n := max(len(got), len(want)) // the shorter one reads as empty lines past its end
	got, want = append(got, make([]string, n-len(got))...), append(want, make([]string, n-len(want))...)
	var d []string
	for i := 0; i < n && len(d) < 5; i++ {
		if got[i] != want[i] {
			d = append(d, fmt.Sprintf("line %d: got %q, want %q", i+1, got[i], want[i]))
		}
	}
	return d, nil
}

// Capture compiles the case's plan on a fresh engine (with the given
// options — e.g. mpsim.WithTransport or mpsim.WithChaos — on top of
// Ports(c.K) and Record(true)), runs it once through the oracle
// (collective.Exercise), requires the run to have sent exactly the
// messages the program predicts (Plan.Messages), and returns the
// program's listing.
func Capture(c Case, opts ...mpsim.Option) (string, error) {
	e, pl, err := c.compile(append([]mpsim.Option{mpsim.Record(true)}, opts...)...)
	if err != nil {
		return "", err
	}
	if _, err := collective.Exercise(pl, collective.Labels); err != nil {
		return "", fmt.Errorf("golden: case %s: %w", c.Name, err)
	}
	if err := sameMessages(e.Metrics().Events(), pl.Messages()); err != nil {
		return "", fmt.Errorf("golden: case %s: %w", c.Name, err)
	}
	return pl.Listing(), nil
}

// sameMessages reports the first message a recorded run and the program
// disagree on.
func sameMessages(got, want []mpsim.Event) error {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i == len(got) || i == len(want):
			return fmt.Errorf("the run sent %d messages, the program %d", len(got), len(want))
		case got[i] != want[i]:
			return fmt.Errorf("message %d: the run sent %+v, the program %+v", i, got[i], want[i])
		}
	}
	return nil
}

// Compile compiles the case's plan on a fresh engine without executing
// it — the entry point for static verification (Plan.Check and
// `bruckctl vet`), which proves the compiled tables well-formed from
// their structure alone.
func Compile(c Case) (*collective.Plan, error) {
	_, pl, err := c.compile()
	return pl, err
}

func (c Case) compile(opts ...mpsim.Option) (*mpsim.Engine, *collective.Plan, error) {
	fail := func(err error) (*mpsim.Engine, *collective.Plan, error) {
		return nil, nil, fmt.Errorf("golden: case %s: %w", c.Name, err)
	}
	e, err := mpsim.New(c.N, append([]mpsim.Option{mpsim.Ports(c.K)}, opts...)...)
	if err != nil {
		return fail(err)
	}
	s, err := c.spec()
	if err != nil {
		return fail(err)
	}
	pl, err := collective.Compile(e, mpsim.WorldGroup(c.N), s)
	if err != nil {
		return fail(err)
	}
	return e, pl, nil
}

// spec is the one translation of a case into the Spec it compiles. The
// names go through collective.ParseSpec ("mixed" is the Bruck index
// under Radices), reductions use the sum:int32 kernel — a wrap-around
// sum, so the oracle's serial fold is exact on any bytes — and a
// topology makes the case hierarchical.
func (c Case) spec() (collective.Spec, error) {
	alg, mixed := c.Alg, c.Alg == "mixed"
	if mixed {
		alg = "bruck"
	}
	s, err := collective.ParseSpec(c.Op, alg)
	if err != nil {
		return s, err
	}
	if s.BlockLen, s.Root = c.B, c.Root; mixed {
		s.Radices = c.Radices
	}
	s.Index.Radix, s.Index.Segments = c.Radix, c.Segments
	kernel, err := collective.KernelOptions(buffers.Sum, buffers.Int32)
	if err != nil {
		return s, err
	}
	kernel.Algorithm, kernel.Radix, kernel.Segments = s.Reduce.Algorithm, c.Radix, c.Segments
	s.Reduce = kernel
	if c.Topology != "" {
		if s.Topology, err = costmodel.ParseTopology(c.Topology); err != nil {
			return s, err
		}
		s.Hierarchical = true
	}
	switch {
	case c.Ragged && s.Op == collective.OpIndex:
		s.Op = collective.OpIndexV
		s.Layout, err = blocks.Ragged(c.raggedCounts())
	case c.Ragged && s.Op == collective.OpConcat:
		s.Op = collective.OpConcatV
		counts := make([]int, c.N)
		for i := range counts {
			counts[i] = (i*7 + 3) % (c.B + 1)
		}
		s.Layout, err = blocks.RaggedVector(counts)
	}
	return s, err
}

// raggedCounts derives the case's deterministic skewed count table:
// lengths cycle through 0..B with a (row, col)-dependent stride.
func (c Case) raggedCounts() [][]int {
	counts := make([][]int, c.N)
	for i := range counts {
		counts[i] = make([]int, c.N)
		for j := range counts[i] {
			counts[i][j] = (i*7 + j*3 + i*j) % (c.B + 1)
		}
	}
	return counts
}
