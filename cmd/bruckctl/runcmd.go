// The run subcommand executes a single collective operation on the
// simulated multiport machine and reports its schedule measures and
// model times (the old cmd/alltoall).
//
//	bruckctl run -op index  -n 64 -b 128 -radix 8 -k 1
//	bruckctl run -op concat -n 17 -b 64 -k 2
//	bruckctl run -op index  -n 64 -b 128 -radix auto      # tuned radix
//	bruckctl run -op index  -n 64 -b 128 -transport slot  # shared-memory slot transport
//	bruckctl run -op index  -n 64 -b 128 -transport chaos -chaos-seed 7 -stragglers 0,3
//	bruckctl run -op index  -n 32 -b 256 -ragged 1.2      # skewed-size ragged study
//	bruckctl run -op index  -n 16 -b 65536 -segments 4    # segment-pipelined schedule
//	bruckctl run -op index  -n 16 -k 1 -crossover-segments # segmented-vs-monolithic sweep
//	bruckctl run -op reducescatter -n 16 -b 64 -kernel sum:float32
//	bruckctl run -op allreduce -n 16 -b 64 -alg auto      # cost-model reduce dispatch
//	bruckctl run -op broadcast -n 9 -k 2                  # one-to-all primitives, root 0
//
// Every mode builds its Spec one way (params.spec: names through
// collective.ParseSpec, the kernel through buffers.ParseKernel) and
// runs it through the oracle (collective.Exercise), which compares
// every output block with the operation's definition. The reduction
// operations (-op reducescatter / allreduce) combine blocks with the
// kernel named by -kernel (op:type) where the plain collectives copy
// them; -alg selects the schedule (for a reduction: ring, halving,
// bruck, or auto for the cost-model verdict).
//
// The studies are modes (runModes), each selected by its flag and
// declaring the flags it reads: a flag set for a mode that does not
// read it is an error, not ignored.
package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/sweep"
)

// params collects one run invocation's configuration.
type params struct {
	op         string
	n          int
	k          int
	b          int
	radix      string
	alg        string
	transport  string
	chaosInner string
	chaosSeed  uint64
	stragglers string
	ragged     float64
	kernel     string
	segments   string
	crossover  bool
	topology   string
	topoCross  bool
	reportJSON bool
}

// The defaults of the flags a mode may not read; their zero values
// count as unset too (tests build params directly).
const (
	defaultN      = 16
	defaultB      = 64
	defaultKernel = "sum:int32"
)

func newRunCmd() *command {
	fs := newFlagSet("run")
	var p params
	fs.StringVar(&p.op, "op", "index", "operation: index, concat, reducescatter, allreduce, broadcast, gather or scatter")
	fs.IntVar(&p.n, cli.FlagN, defaultN, "number of processors")
	fs.IntVar(&p.k, cli.FlagPorts, 1, "ports per processor")
	fs.IntVar(&p.b, cli.FlagBytes, defaultB, "block size in bytes")
	fs.StringVar(&p.radix, cli.FlagRadix, "", "Bruck radix of the index and the reductions (2..n), empty for k+1, or 'auto' for the model-tuned index radix")
	fs.StringVar(&p.radix, cli.FlagRadixAlias, "", "alias for -radix")
	fs.StringVar(&p.alg, "alg", "", "algorithm override (index: bruck|direct|xor; concat: circulant|folklore|ring|recdbl; reducescatter/allreduce: ring|halving|bruck|auto)")
	tf := cli.RegisterTransportFlags(fs)
	fs.Float64Var(&p.ragged, "ragged", 0, "run a skewed-size ragged study of the index or the concatenation with Zipf exponent <skew> (block sizes ~ b/rank^skew)")
	fs.StringVar(&p.kernel, "kernel", defaultKernel, "reduction kernel as op:type (sum|min|max : int32|int64|float32|float64)")
	fs.StringVar(&p.segments, "segments", "", "pipeline the packed Bruck schedule over <s> segments (2..), 'auto' for the model-tuned count, empty for monolithic")
	fs.BoolVar(&p.crossover, "crossover-segments", false, "sweep block sizes and report where the segmented index schedule overtakes the monolithic one")
	fs.StringVar(&p.topology, "topology", "", "two-level topology spec <groups>x<size>[:beta,tau/beta,tau] — run the hierarchical schedule on the machine it describes")
	fs.BoolVar(&p.topoCross, "crossover-topology", false, "sweep (n, b, inter/intra ratio) and tabulate flat vs hierarchical modeled times")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "run", summary: "run one collective and report schedule measures vs bounds", fs: fs}
	c.exec = func(_ []string, w io.Writer) error {
		p.transport, p.chaosInner, p.chaosSeed, p.stragglers = tf.Transport, tf.ChaosInner, tf.ChaosSeed, tf.Stragglers
		return runOp(w, p)
	}
	return c
}

func runOp(w io.Writer, p params) error {
	return reporter{w, false, p.reportJSON}.flush(runTables(p))
}

// runMode is one study of the run subcommand: the flag that selects it
// (none: one plain run), what it is and the operations it supports, for
// its error messages, and the optional flags it reads.
type runMode struct {
	flag, what, ops, reads string
	run                    func(p params) ([]*cli.Table, error)
}

// runModes is in precedence order; the last row applies when no other
// does.
var runModes = []runMode{
	{"crossover-segments", "the segment crossover study", "index", "n b radix segments", runSegmentCrossover},
	{"crossover-topology", "the topology crossover study", "index concat", "", runTopoCrossover},
	{"topology", "the hierarchical schedule", "index concat allreduce", "b kernel transport", runTopology},
	{"ragged", "the ragged study", "index concat", "n b transport", runRagged},
	{"", "", "", "n b radix alg segments kernel transport", runPlain},
}

// flagState is one optional flag and whether it is set to a value other
// than its default.
type flagState struct {
	name string
	set  bool
}

// optional lists the flags some mode does not read. (-op, -k and
// -report-json are read by every mode; the chaos flags go with
// -transport.)
func (p *params) optional() []flagState {
	return []flagState{
		{"n", p.n != 0 && p.n != defaultN},
		{"b", p.b != 0 && p.b != defaultB},
		{"radix", p.radix != ""},
		{"alg", p.alg != ""},
		{"segments", p.segments != ""},
		{"kernel", p.kernel != "" && p.kernel != defaultKernel},
		{"transport", p.transport != "" && p.transport != "chan"},
		{"ragged", p.ragged > 0},
		{"topology", p.topology != ""},
		{"crossover-segments", p.crossover},
		{"crossover-topology", p.topoCross},
	}
}

// runTables selects the mode and runs it, after rejecting an operation
// the mode does not support and any flag it would silently ignore.
func runTables(p params) ([]*cli.Table, error) {
	named, err := collective.ParseSpec(p.op, "")
	if err != nil {
		return nil, err
	}
	flags := p.optional()
	m, where := &runModes[len(runModes)-1], "-op "+p.op
	for i := len(runModes) - 2; i >= 0; i-- {
		if slices.Contains(flags, flagState{runModes[i].flag, true}) {
			m, where = &runModes[i], "-"+runModes[i].flag
		}
	}
	if m.ops != "" && !slices.Contains(strings.Fields(m.ops), named.Op.String()) {
		return nil, fmt.Errorf("%s does not apply to -op %s: %s supports -op %s", where, p.op, m.what, strings.ReplaceAll(m.ops, " ", "|"))
	}
	for _, f := range flags {
		if f.set && f.name != m.flag && !slices.Contains(strings.Fields(m.reads), f.name) {
			return nil, fmt.Errorf("-%s does not apply to %s", f.name, where)
		}
	}
	return m.run(p)
}

// engine builds the n-processor engine the transport flags describe.
func (p *params) engine(n int, extra ...mpsim.Option) (*mpsim.Engine, error) {
	tfl := cli.TransportFlags{Transport: p.transport, ChaosInner: p.chaosInner, ChaosSeed: p.chaosSeed, Stragglers: p.stragglers}
	if tfl.Transport == "" {
		tfl.Transport = "chan"
	}
	if tfl.ChaosInner == "" {
		tfl.ChaosInner = "chan"
	}
	topts, err := tfl.EngineOptions()
	if err != nil {
		return nil, err
	}
	return mpsim.New(n, append(append([]mpsim.Option{mpsim.Ports(p.k)}, extra...), topts...)...)
}

// spec is the one path from the flags to a Spec on n processors: the
// names through collective.ParseSpec, the numeric flags, the kernel
// through buffers.ParseKernel. fill is the input that suits it: block
// labels, or for a reduction the kernel type's small integers, whose
// combination does not depend on the order.
func (p *params) spec(n int) (s collective.Spec, fill func(blk []byte, rank, block int), err error) {
	alg, auto := p.alg, p.alg == "auto"
	if auto {
		alg = ""
	}
	if s, err = collective.ParseSpec(p.op, alg); err != nil {
		return s, nil, err
	}
	reduction := s.Op == collective.OpReduceScatter || s.Op == collective.OpAllReduce
	index := s.Op == collective.OpIndex
	for _, f := range []struct {
		name      string
		set, read bool
	}{
		{"radix", p.radix != "", index || reduction},
		{"segments", p.segments != "", index || reduction},
		{"kernel", p.kernel != "" && p.kernel != defaultKernel, reduction},
		{"alg auto", auto, reduction},
	} {
		if f.set && !f.read {
			return s, nil, fmt.Errorf("-%s does not apply to -op %s", f.name, p.op)
		}
	}
	s.BlockLen, fill = p.b, collective.Labels
	if reduction {
		kernel := p.kernel
		if kernel == "" {
			kernel = defaultKernel
		}
		rop, typ, err := buffers.ParseKernel(kernel)
		if err != nil {
			return s, nil, err
		}
		ralg := s.Reduce.Algorithm
		if s.Reduce, err = collective.KernelOptions(rop, typ); err != nil {
			return s, nil, err
		}
		s.Reduce.Algorithm, fill = ralg, typ.Fill
	}
	if auto {
		s.Auto = &costmodel.SP1
	}
	switch {
	case p.radix == "":
	case p.radix == "auto" && index:
		s.Index.Radix = collective.OptimalRadix(costmodel.SP1, n, p.b, p.k, false)
	default:
		if s.Index.Radix, err = strconv.Atoi(p.radix); err != nil {
			return s, nil, fmt.Errorf("bad radix %q: %v", p.radix, err)
		}
	}
	if s.Index.Segments, err = parseSegments(p.segments); err != nil {
		return s, nil, err
	}
	s.Reduce.Radix, s.Reduce.Segments = s.Index.Radix, s.Index.Segments
	return s, fill, nil
}

// exercise compiles the spec on all of e's processors and runs it once
// through the oracle.
func exercise(e *mpsim.Engine, s collective.Spec, fill func(blk []byte, rank, block int)) (*collective.Plan, *collective.Result, error) {
	pl, err := collective.Compile(e, mpsim.WorldGroup(e.N()), s)
	if err != nil {
		return nil, nil, err
	}
	res, err := collective.Exercise(pl, fill)
	return pl, res, err
}

// runPlain runs the operation once and reports its measures against the
// plan's lower bounds.
func runPlain(p params) ([]*cli.Table, error) {
	e, err := p.engine(p.n)
	if err != nil {
		return nil, err
	}
	spec, fill, err := p.spec(p.n)
	if err != nil {
		return nil, err
	}
	reduction := spec.Reduce.Kernel != nil
	kv := cli.KV("run")
	if reduction {
		kv = cli.KV("reduce")
	}
	kv.Add("op", p.op)
	kv.Add("n", p.n)
	kv.Add("k", p.k)
	kv.Add("b", p.b)
	if p.radix == "auto" {
		kv.Add("tuned_radix", spec.Index.Radix)
	}
	pl, res, err := exercise(e, spec, fill)
	if err != nil {
		return nil, err
	}
	if p.segments != "" {
		kv.Add("segments", p.segments)
	}
	kv.Add("alg", pl.Algorithm())
	if spec.Auto != nil {
		kv.Add("auto_pick", pl.Algorithm())
	}
	if reduction {
		kv.Add("kernel", p.kernel)
	}
	kv.Add("transport", e.Transport())
	kv.Add("c1", res.C1)
	kv.Add("c1_lower_bound", res.C1LowerBound)
	kv.Add("c2", res.C2)
	kv.Add("c2_lower_bound", res.C2LowerBound)
	kv.Add("total_bytes", res.TotalBytes)
	kv.Add("messages", res.Messages)
	if reduction {
		kv.Add("verified_serial_reference", true)
	} else {
		kv.Add("verified_direct_reference", true)
	}
	kv.Add("model_sp1_linear", costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2)))
	kv.Add("model_sp1_extended", costmodel.Duration(costmodel.SP1Measured.Time(res.C1, res.C2)))
	kv.Add("critical_path_sp1", costmodel.Duration(pl.CriticalPath(costmodel.SP1)))
	return []*cli.Table{kv}, nil
}

// zipfCounts returns the Zipf-ish skewed block-size table of the
// ragged study: block (i, j) gets round(b / m^skew) bytes with
// m = ((i+j) mod n) + 1, so every processor sends a mix of large and
// small blocks and heavy skews produce genuine zero-length blocks.
func zipfCounts(n, b int, skew float64) [][]int {
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
		for j := range counts[i] {
			m := float64((i+j)%n + 1)
			counts[i][j] = int(float64(b)/math.Pow(m, skew) + 0.5)
		}
	}
	return counts
}

// zipfVector is zipfCounts for the concatenation's per-processor
// contributions.
func zipfVector(n, b int, skew float64) []int {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = int(float64(b)/math.Pow(float64(i+1), skew) + 0.5)
	}
	return counts
}

// runRagged is the skewed-size study: every ragged-capable schedule of
// the chosen operation (padded Bruck, exact-extent direct/ring, and the
// cost-model auto dispatch) runs through the oracle on the same Zipf-ish
// layout — block sizes fall off as b / rank^s, the smallest rounding to
// zero-length blocks — and the schedules' C1, C2, non-uniform lower
// bound and model times are tabulated.
func runRagged(p params) ([]*cli.Table, error) {
	e, err := p.engine(p.n)
	if err != nil {
		return nil, err
	}
	g := mpsim.WorldGroup(p.n)
	spec, err := collective.ParseSpec(p.op, "")
	if err != nil {
		return nil, err
	}
	kv := cli.KV("ragged-study")
	kv.Add("op", p.op)
	kv.Add("n", p.n)
	kv.Add("k", p.k)
	kv.Add("b", p.b)
	kv.Add("skew", fmt.Sprintf("%.2f", p.ragged))
	kv.Add("transport", e.Transport())
	// The candidate schedules; the cost-model dispatch goes last.
	names := []string{"bruck r=k+1", fmt.Sprintf("bruck r=%d", p.n), "direct", "auto (SP-1)"}
	specs := make([]collective.Spec, 4)
	zeros := -1
	if spec.Op == collective.OpIndex {
		counts := zipfCounts(p.n, p.b, p.ragged)
		if spec.Layout, err = blocks.Ragged(counts); err != nil {
			return nil, err
		}
		spec.Op = collective.OpIndexV
		specs[0], specs[1], specs[2], specs[3] = spec, spec, spec, spec
		specs[1].Index.Radix = p.n
		specs[2].Index.Algorithm = collective.IndexDirect
		zeros = 0
		for i := range counts {
			for _, c := range counts[i] {
				if c == 0 {
					zeros++
				}
			}
		}
	} else {
		if spec.Layout, err = blocks.RaggedVector(zipfVector(p.n, p.b, p.ragged)); err != nil {
			return nil, err
		}
		spec.Op = collective.OpConcatV
		names, specs = []string{"circulant", "ring", "auto (SP-1)"}, specs[:3]
		specs[0], specs[1], specs[2] = spec, spec, spec
		specs[1].Concat.Algorithm = collective.ConcatRing
	}
	specs[len(specs)-1].Auto = &costmodel.SP1
	kv.Add("payload_bytes", spec.Layout.Total())
	kv.Add("largest_block", spec.Layout.Max())
	if zeros >= 0 {
		kv.Add("zero_length_blocks", zeros)
	}

	sched := &cli.Table{Name: "schedules", Columns: []string{"schedule", "c1", "c2", "model_sp1"}}
	cache := collective.NewPlanCache()
	var pl *collective.Plan
	for i, s := range specs {
		if pl, err = cache.Get(e, g, s); err != nil {
			return nil, fmt.Errorf("%s: %v", names[i], err)
		}
		if i == 0 {
			kv.Add("c2_lower_bound", pl.C2LowerBound())
		}
		res, err := collective.Exercise(pl, collective.Labels)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", names[i], err)
		}
		model := costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2))
		sched.AddRow(names[i], fmt.Sprint(res.C1), fmt.Sprint(res.C2), fmt.Sprint(model))
	}
	kv.Add("auto_pick", pl.Algorithm())
	kv.Add("byte_identical", true)
	return []*cli.Table{kv, sched}, nil
}

// parseSegments parses the -segments flag: empty means monolithic,
// "auto" defers to the plan compiler's cost-model pick, and a literal
// count pipelines over that many segments (the compiler clamps it to
// the block size and the round count).
func parseSegments(s string) (int, error) {
	switch s {
	case "":
		return 0, nil
	case "auto":
		return collective.AutoSegments, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("bad segments %q: want a count >= 1 or 'auto'", s)
	}
	return v, nil
}

// runSegmentCrossover is the bandwidth-vs-latency crossover study:
// pipelining trades S-1 extra merged rounds (latency) for smaller
// per-round messages (bandwidth), so the segmented index schedule loses
// on small blocks and overtakes the monolithic one past some block
// size. The study sweeps block sizes, reads each compiled plan's rounds
// and volume through the sweep harness, tabulates both model times, and
// reports the crossover block size.
func runSegmentCrossover(p params) ([]*cli.Table, error) {
	r := p.k + 1
	switch p.radix {
	case "":
	case "auto":
		return nil, fmt.Errorf("-crossover-segments needs a fixed radix: 'auto' would change the round structure per block size")
	default:
		v, err := strconv.Atoi(p.radix)
		if err != nil {
			return nil, fmt.Errorf("bad radix %q: %v", p.radix, err)
		}
		r = v
	}
	autoSeg := p.segments == "" || p.segments == "auto"
	fixed, segName := 0, "segmented(auto)"
	if !autoSeg {
		v, err := strconv.Atoi(p.segments)
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad segments %q: the crossover study wants a count >= 2 or 'auto'", p.segments)
		}
		fixed, segName = v, fmt.Sprintf("segmented(s=%d)", v)
	}
	h := sweep.NewHarness(costmodel.SP1)
	maxB := max(64<<10, p.b)
	mono := sweep.Series{Name: "monolithic"}
	seg := sweep.Series{Name: segName}
	st := &cli.Table{Name: "segment-crossover", Columns: []string{
		"b", "segments", "mono_c1", "mono_c2", "seg_c1", "seg_c2", "speedup",
	}}
	crossover := -1
	// Start at b = 2: a 1-byte block cannot be split, so both schedules
	// are identical there and would register a vacuous crossover.
	for b := 2; b <= maxB; b *= 2 {
		mp, err := h.SegmentedPoint(p.n, r, p.k, b, 1)
		if err != nil {
			return nil, err
		}
		s := fixed
		if autoSeg {
			s = collective.OptimalSegments(costmodel.SP1, p.n, b, r, p.k)
		}
		sp, err := h.SegmentedPoint(p.n, r, p.k, b, s)
		if err != nil {
			return nil, err
		}
		// Under auto the model falls back to s = 1 while pipelining
		// loses, so "first size with s > 1 and a strict win" marks the
		// crossover; the fixed arm uses the series comparison below.
		if autoSeg && crossover < 0 && s > 1 && sp.Seconds < mp.Seconds {
			crossover = b
		}
		mono.Points = append(mono.Points, mp)
		seg.Points = append(seg.Points, sp)
		speedup := math.Inf(1)
		if sp.Seconds > 0 {
			speedup = mp.Seconds / sp.Seconds
		}
		st.AddRow(fmt.Sprint(b), fmt.Sprint(s), fmt.Sprint(mp.C1), fmt.Sprint(mp.C2),
			fmt.Sprint(sp.C1), fmt.Sprint(sp.C2), fmt.Sprintf("%.3f", speedup))
	}
	if !autoSeg {
		x, err := sweep.Crossover(mono, seg)
		if err != nil {
			return nil, err
		}
		crossover = x
	}

	// crossover_b is the block size the segmented schedule wins from, -1
	// when it never overtakes the monolithic one up to max_b.
	kv := cli.KV("segment-crossover")
	kv.Add("n", p.n)
	kv.Add("k", p.k)
	kv.Add("radix", r)
	kv.Add("segments", segName)
	kv.Add("max_b", maxB)
	kv.Add("crossover_b", crossover)
	return []*cli.Table{kv, st, sweep.SeriesReport("segment-model-times", []sweep.Series{mono, seg}, "b")}, nil
}
