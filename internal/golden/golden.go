// Package golden maintains the golden schedule-trace corpus: one
// canonical trace artifact (internal/trace.Schedule) per representative
// schedule family, committed under testdata/golden/ and verified
// against live runs by the package tests, the chaos fuzzer and the
// cmd/trace CLI. A golden mismatch means the schedule's structure —
// rounds, partners, message sizes, block placement — drifted from what
// was reviewed and committed; regenerate deliberately with
// `go test ./internal/golden -update` (or `cmd/trace record`) and
// review the diff.
//
// Every capture also self-verifies the collective's result bytes
// against an independently computed reference, so a golden run proves
// byte-correctness and structural stability in one pass — under any
// transport backend, since traces are transport-independent.
package golden

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/trace"
)

// Case describes one golden-trace configuration: a collective
// operation, schedule family and machine shape small enough to capture
// in milliseconds but rich enough to exercise the family's structure.
type Case struct {
	// Name is the artifact's base name (Name + ".json" under the golden
	// directory).
	Name string
	// Op is "index", "concat", "reduce-scatter" or "allreduce".
	Op string
	// Alg selects the schedule family within the operation:
	// index: "bruck", "mixed", "direct", "xor";
	// concat: "circulant", "folklore", "ring", "recdbl";
	// reductions: "ring", "halving", "bruck".
	Alg string
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
	// hierarchical case: the case compiles the CompileHierarchical*
	// composition on that node-group structure (Alg is "hier", and N
	// must equal the spec's processor count). Empty for flat cases.
	Topology string
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
		// table and link-class discipline verified by schedcheck.
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
	return filepath.Join(dir, c.Name+".json")
}

// Write records the schedule as the case's golden artifact under dir,
// creating the directory as needed.
func Write(dir string, c Case, s *trace.Schedule) error {
	data, err := s.Canonical()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if err := os.WriteFile(Path(dir, c), data, 0o644); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return nil
}

// Verify diffs a live schedule against the case's committed artifact
// under dir. It returns the structural differences (nil when the trace
// matches) or an error when the artifact is missing or unparseable.
func Verify(dir string, c Case, live *trace.Schedule) ([]string, error) {
	data, err := os.ReadFile(Path(dir, c))
	if err != nil {
		return nil, fmt.Errorf("golden: no artifact for case %s (run with -update or `cmd/trace record`): %w", c.Name, err)
	}
	want, err := trace.ParseSchedule(data)
	if err != nil {
		return nil, fmt.Errorf("golden: case %s: %w", c.Name, err)
	}
	return trace.Diff(live, want), nil
}

// Perturb structurally mutates a schedule — the drift a verify run must
// catch. Used by the negative tests and `bruckctl trace verify -perturb`.
// Hierarchical schedules are perturbed across the level dimension
// (PerturbPhase); flat ones via a message-size bump.
func Perturb(s *trace.Schedule) {
	if PerturbPhase(s) {
		return
	}
	s.C2++
	for i := range s.Rounds {
		if len(s.Rounds[i].Sends) > 0 {
			s.Rounds[i].Sends[0].Bytes++
			return
		}
	}
	// A schedule with no messages (n = 1) still drifts via its meta.
	s.C1++
}

// PerturbPhase moves one inter-group transfer of a hierarchical
// schedule into an intra-group phase — the cross-level drift the
// verifiers must catch: the trace diff sees the displaced sends, and
// schedcheck's link-class discipline sees a cross-group message inside
// an intra phase. Returns false when the schedule has no phase table
// or no message to displace, leaving it untouched.
func PerturbPhase(s *trace.Schedule) bool {
	if len(s.Phases) == 0 {
		return false
	}
	interIdx, intraIdx := -1, -1
	for _, ph := range s.Phases {
		for r := ph.First; r < ph.First+ph.Rounds && r < len(s.Rounds); r++ {
			if ph.Class == "inter" && interIdx < 0 && len(s.Rounds[r].Sends) > 0 {
				interIdx = r
			}
			if ph.Class == "intra" && intraIdx < 0 {
				intraIdx = r
			}
		}
	}
	if interIdx < 0 || intraIdx < 0 {
		return false
	}
	snd := s.Rounds[interIdx].Sends[0]
	s.Rounds[interIdx].Sends = append([]trace.ScheduleSend(nil), s.Rounds[interIdx].Sends[1:]...)
	s.Rounds[intraIdx].Sends = append(s.Rounds[intraIdx].Sends, snd)
	return true
}

// Capture compiles the case's plan on a fresh engine (created with the
// given extra options — e.g. mpsim.WithTransport or mpsim.WithChaos —
// on top of Ports(c.K) and Record(true)), executes it once on
// deterministic input, byte-verifies the result against an
// independently computed reference, and returns the canonical trace of
// the run.
func Capture(c Case, opts ...mpsim.Option) (*trace.Schedule, error) {
	e, err := mpsim.New(c.N, append([]mpsim.Option{mpsim.Ports(c.K), mpsim.Record(true)}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("golden: case %s: %w", c.Name, err)
	}
	g := mpsim.WorldGroup(c.N)
	var (
		pl   *collective.Plan
		run  func(pl *collective.Plan) error
		cerr error
	)
	switch c.Op {
	case "index":
		pl, run, cerr = c.setupIndex(e, g)
	case "concat":
		pl, run, cerr = c.setupConcat(e, g)
	case "reduce-scatter", "allreduce":
		pl, run, cerr = c.setupReduce(e, g)
	default:
		return nil, fmt.Errorf("golden: case %s: unknown op %q", c.Name, c.Op)
	}
	if cerr != nil {
		return nil, fmt.Errorf("golden: case %s: %w", c.Name, cerr)
	}
	if err := run(pl); err != nil {
		return nil, fmt.Errorf("golden: case %s: %w", c.Name, err)
	}
	return pl.Schedule(e.Metrics().Events()), nil
}

// Compile compiles the case's plan on a fresh engine without executing
// it — the entry point for static verification (Plan.Check and
// `bruckctl vet`), which proves the compiled tables well-formed from
// their structure alone.
func Compile(c Case) (*collective.Plan, error) {
	e, err := mpsim.New(c.N, mpsim.Ports(c.K))
	if err != nil {
		return nil, fmt.Errorf("golden: case %s: %w", c.Name, err)
	}
	g := mpsim.WorldGroup(c.N)
	var (
		pl   *collective.Plan
		cerr error
	)
	switch c.Op {
	case "index":
		pl, _, cerr = c.setupIndex(e, g)
	case "concat":
		pl, _, cerr = c.setupConcat(e, g)
	case "reduce-scatter", "allreduce":
		pl, _, cerr = c.setupReduce(e, g)
	default:
		return nil, fmt.Errorf("golden: case %s: unknown op %q", c.Name, c.Op)
	}
	if cerr != nil {
		return nil, fmt.Errorf("golden: case %s: %w", c.Name, cerr)
	}
	return pl, nil
}

// compile compiles a fixed-size spec of the case: the two-level schedule
// under the case's topology when it names one.
func (c Case) compile(e *mpsim.Engine, g *mpsim.Group, s collective.Spec) (*collective.Plan, error) {
	if c.Topology != "" {
		topo, err := costmodel.ParseTopology(c.Topology)
		if err != nil {
			return nil, err
		}
		s.Hierarchical, s.Topology = true, topo
	}
	return collective.Compile(e, g, s)
}

// fill writes the (proc, block, byte)-identifying pattern the reference
// checks recompute.
func fill(blk []byte, i, j int) {
	for x := range blk {
		blk[x] = byte(i*131 + j*31 + x*7)
	}
}

func (c Case) indexOptions() (collective.IndexOptions, error) {
	switch c.Alg {
	case "hier":
		if c.Topology == "" {
			return collective.IndexOptions{}, fmt.Errorf("alg %q requires a topology spec", c.Alg)
		}
		return collective.IndexOptions{}, nil
	case "bruck", "mixed":
		return collective.IndexOptions{Radix: c.Radix, Segments: c.Segments}, nil
	case "direct":
		return collective.IndexOptions{Algorithm: collective.IndexDirect}, nil
	case "xor":
		return collective.IndexOptions{Algorithm: collective.IndexPairwiseXOR}, nil
	}
	return collective.IndexOptions{}, fmt.Errorf("unknown index algorithm %q", c.Alg)
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

func (c Case) setupIndex(e *mpsim.Engine, g *mpsim.Group) (*collective.Plan, func(*collective.Plan) error, error) {
	opt, err := c.indexOptions()
	if err != nil {
		return nil, nil, err
	}
	if c.Ragged {
		l, err := blocks.Ragged(c.raggedCounts())
		if err != nil {
			return nil, nil, err
		}
		pl, err := collective.Compile(e, g, collective.Spec{Op: collective.OpIndexV, Layout: l, Index: opt})
		if err != nil {
			return nil, nil, err
		}
		return pl, func(pl *collective.Plan) error {
			in, err := buffers.NewRagged(l)
			if err != nil {
				return err
			}
			out, err := buffers.NewRagged(l.Transpose())
			if err != nil {
				return err
			}
			for i := 0; i < c.N; i++ {
				for j := 0; j < c.N; j++ {
					fill(in.Block(i, j), i, j)
				}
			}
			if _, err := pl.ExecuteV(in, out); err != nil {
				return err
			}
			for i := 0; i < c.N; i++ {
				for j := 0; j < c.N; j++ {
					if !bytesEqual(out.Block(i, j), in.Block(j, i)) {
						return fmt.Errorf("indexv result: out.Block(%d,%d) != in.Block(%d,%d)", i, j, j, i)
					}
				}
			}
			return nil
		}, nil
	}
	spec := collective.Spec{Op: collective.OpIndex, BlockLen: c.B, Index: opt}
	if c.Alg == "mixed" {
		spec.Radices = append([]int{}, c.Radices...)
	}
	pl, err := c.compile(e, g, spec)
	if err != nil {
		return nil, nil, err
	}
	return pl, func(pl *collective.Plan) error {
		in, err := buffers.New(c.N, c.N, c.B)
		if err != nil {
			return err
		}
		out, err := buffers.New(c.N, c.N, c.B)
		if err != nil {
			return err
		}
		for i := 0; i < c.N; i++ {
			for j := 0; j < c.N; j++ {
				fill(in.Block(i, j), i, j)
			}
		}
		if _, err := pl.Execute(in, out); err != nil {
			return err
		}
		for i := 0; i < c.N; i++ {
			for j := 0; j < c.N; j++ {
				if !bytesEqual(out.Block(i, j), in.Block(j, i)) {
					return fmt.Errorf("index result: out.Block(%d,%d) != in.Block(%d,%d)", i, j, j, i)
				}
			}
		}
		return nil
	}, nil
}

func (c Case) concatOptions() (collective.ConcatOptions, error) {
	switch c.Alg {
	case "hier":
		if c.Topology == "" {
			return collective.ConcatOptions{}, fmt.Errorf("alg %q requires a topology spec", c.Alg)
		}
		return collective.ConcatOptions{}, nil
	case "circulant":
		return collective.ConcatOptions{}, nil
	case "folklore":
		return collective.ConcatOptions{Algorithm: collective.ConcatFolklore}, nil
	case "ring":
		return collective.ConcatOptions{Algorithm: collective.ConcatRing}, nil
	case "recdbl":
		return collective.ConcatOptions{Algorithm: collective.ConcatRecursiveDoubling}, nil
	}
	return collective.ConcatOptions{}, fmt.Errorf("unknown concat algorithm %q", c.Alg)
}

func (c Case) setupConcat(e *mpsim.Engine, g *mpsim.Group) (*collective.Plan, func(*collective.Plan) error, error) {
	opt, err := c.concatOptions()
	if err != nil {
		return nil, nil, err
	}
	if c.Ragged {
		counts := make([]int, c.N)
		for i := range counts {
			counts[i] = (i*7 + 3) % (c.B + 1)
		}
		l, err := blocks.RaggedVector(counts)
		if err != nil {
			return nil, nil, err
		}
		pl, err := collective.Compile(e, g, collective.Spec{Op: collective.OpConcatV, Layout: l, Concat: opt})
		if err != nil {
			return nil, nil, err
		}
		return pl, func(pl *collective.Plan) error {
			in, err := buffers.NewRagged(l)
			if err != nil {
				return err
			}
			outL, err := l.ConcatOut()
			if err != nil {
				return err
			}
			out, err := buffers.NewRagged(outL)
			if err != nil {
				return err
			}
			for i := 0; i < c.N; i++ {
				fill(in.Block(i, 0), i, 0)
			}
			if _, err := pl.ExecuteV(in, out); err != nil {
				return err
			}
			for i := 0; i < c.N; i++ {
				for j := 0; j < c.N; j++ {
					if !bytesEqual(out.Block(i, j), in.Block(j, 0)) {
						return fmt.Errorf("concatv result: out.Block(%d,%d) != in.Block(%d,0)", i, j, j)
					}
				}
			}
			return nil
		}, nil
	}
	pl, err := c.compile(e, g, collective.Spec{Op: collective.OpConcat, BlockLen: c.B, Concat: opt})
	if err != nil {
		return nil, nil, err
	}
	return pl, func(pl *collective.Plan) error {
		in, err := buffers.New(c.N, 1, c.B)
		if err != nil {
			return err
		}
		out, err := buffers.New(c.N, c.N, c.B)
		if err != nil {
			return err
		}
		for i := 0; i < c.N; i++ {
			fill(in.Block(i, 0), i, 0)
		}
		if _, err := pl.Execute(in, out); err != nil {
			return err
		}
		for i := 0; i < c.N; i++ {
			for j := 0; j < c.N; j++ {
				if !bytesEqual(out.Block(i, j), in.Block(j, 0)) {
					return fmt.Errorf("concat result: out.Block(%d,%d) != in.Block(%d,0)", i, j, j)
				}
			}
		}
		return nil
	}, nil
}

func (c Case) reduceOptions() (collective.ReduceOptions, error) {
	kern, err := buffers.Kernel(buffers.Sum, buffers.Int32)
	if err != nil {
		return collective.ReduceOptions{}, err
	}
	opt := collective.ReduceOptions{
		Kernel: kern, ElemSize: 4, KernelKey: "sum/int32", Radix: c.Radix,
		Segments: c.Segments,
	}
	switch c.Alg {
	case "hier":
		if c.Topology == "" {
			return collective.ReduceOptions{}, fmt.Errorf("alg %q requires a topology spec", c.Alg)
		}
	case "ring":
		opt.Algorithm = collective.ReduceRing
	case "halving":
		opt.Algorithm = collective.ReduceHalving
	case "bruck":
		opt.Algorithm = collective.ReduceBruck
	default:
		return collective.ReduceOptions{}, fmt.Errorf("unknown reduce algorithm %q", c.Alg)
	}
	return opt, nil
}

// expectedChunk computes the int32 wrap-around sum of every rank's
// contribution to chunk j — the reference a reduction capture verifies
// against.
func (c Case) expectedChunk(j int) []byte {
	sums := make([]int32, c.B/4)
	blk := make([]byte, c.B)
	for i := 0; i < c.N; i++ {
		fill(blk, i, j)
		for e := range sums {
			sums[e] += int32(binary.LittleEndian.Uint32(blk[e*4:]))
		}
	}
	out := make([]byte, c.B)
	for e, v := range sums {
		binary.LittleEndian.PutUint32(out[e*4:], uint32(v))
	}
	return out
}

func (c Case) setupReduce(e *mpsim.Engine, g *mpsim.Group) (*collective.Plan, func(*collective.Plan) error, error) {
	opt, err := c.reduceOptions()
	if err != nil {
		return nil, nil, err
	}
	kind := collective.ReduceScatterKind
	outBlocks := 1
	if c.Op == "allreduce" {
		kind = collective.AllReduceKind
		outBlocks = c.N
	}
	pl, err := c.compile(e, g, collective.Spec{Op: kind.Op(), BlockLen: c.B, Reduce: opt})
	if err != nil {
		return nil, nil, err
	}
	return pl, func(pl *collective.Plan) error {
		in, err := buffers.New(c.N, c.N, c.B)
		if err != nil {
			return err
		}
		out, err := buffers.New(c.N, outBlocks, c.B)
		if err != nil {
			return err
		}
		for i := 0; i < c.N; i++ {
			for j := 0; j < c.N; j++ {
				fill(in.Block(i, j), i, j)
			}
		}
		if _, err := pl.Execute(in, out); err != nil {
			return err
		}
		for i := 0; i < c.N; i++ {
			if outBlocks == 1 {
				if !bytesEqual(out.Block(i, 0), c.expectedChunk(i)) {
					return fmt.Errorf("reduce-scatter result: rank %d chunk mismatch", i)
				}
				continue
			}
			for j := 0; j < c.N; j++ {
				if !bytesEqual(out.Block(i, j), c.expectedChunk(j)) {
					return fmt.Errorf("allreduce result: rank %d chunk %d mismatch", i, j)
				}
			}
		}
		return nil
	}, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
