// The run subcommand executes a single collective operation on the
// simulated multiport machine and reports its schedule measures and
// model times (the old cmd/alltoall).
//
//	bruckctl run -op index  -n 64 -b 128 -radix 8 -k 1
//	bruckctl run -op concat -n 17 -b 64 -k 2
//	bruckctl run -op index  -n 64 -b 128 -radix auto      # tuned radix
//	bruckctl run -op index  -n 64 -b 128 -flat            # zero-copy flat-buffer path
//	bruckctl run -op index  -n 64 -b 128 -transport slot  # shared-memory slot transport
//	bruckctl run -op index  -n 64 -b 128 -transport chaos -chaos-seed 7 -stragglers 0,3
//	bruckctl run -op index  -n 64 -b 128 -repeat 100      # plan-reuse study
//	bruckctl run -op index  -n 32 -b 256 -ragged 1.2      # skewed-size ragged study
//	bruckctl run -op index  -n 16 -b 65536 -segments 4    # segment-pipelined schedule
//	bruckctl run -op index  -n 16 -k 1 -crossover-segments # segmented-vs-monolithic sweep
//	bruckctl run -op reducescatter -n 16 -b 64 -kernel sum:float32
//	bruckctl run -op allreduce -n 16 -b 64 -alg auto      # cost-model reduce dispatch
//
// The reduction operations (-op reducescatter / allreduce) combine
// blocks with the kernel named by -kernel (op:type) where the plain
// collectives copy them; -alg selects the reduce-scatter schedule
// (ring, halving, bruck, or auto for the cost-model verdict), and the
// result is verified against a locally computed serial reduce.
//
// With -repeat N (N > 1) the command runs the operation N times twice
// over on flat buffers — once compiling the schedule on every call and
// once executing a single precompiled plan — verifies both produce the
// same bytes, and reports the wall-clock per operation of each mode.
//
// With -ragged s (s > 0) the command builds a Zipf-ish skewed layout —
// block sizes fall off as b / rank^s, with the smallest rounding to
// zero-length blocks — runs every ragged-capable schedule (padded
// Bruck, exact-extent direct/ring, and the cost-model auto dispatch) on
// it, verifies each result byte-for-byte against a locally computed
// direct reference exchange, and tabulates C1, C2, the non-uniform
// lower bound and the model times.
package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/lowerbound"
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
	flat       bool
	transport  string
	chaosInner string
	chaosSeed  uint64
	stragglers string
	repeat     int
	ragged     float64
	kernel     string
	segments   string
	crossover  bool
	topology   string
	topoCross  bool
	reportJSON bool
}

func newRunCmd() *command {
	fs := newFlagSet("run")
	var p params
	fs.StringVar(&p.op, "op", "index", "operation: index, concat, reducescatter or allreduce")
	fs.IntVar(&p.n, cli.FlagN, 16, "number of processors")
	fs.IntVar(&p.k, cli.FlagPorts, 1, "ports per processor")
	fs.IntVar(&p.b, cli.FlagBytes, 64, "block size in bytes")
	fs.StringVar(&p.radix, cli.FlagRadix, "", "index radix (2..n), empty for k+1, or 'auto' for model-tuned")
	fs.StringVar(&p.radix, cli.FlagRadixAlias, "", "alias for -radix")
	fs.StringVar(&p.alg, "alg", "", "algorithm override (index: bruck|direct|xor; concat: circulant|folklore|ring|recdbl; reducescatter/allreduce: ring|halving|bruck|auto)")
	fs.BoolVar(&p.flat, "flat", false, "run the zero-copy flat-buffer path (IndexFlat/ConcatFlat)")
	tf := cli.RegisterTransportFlags(fs)
	fs.IntVar(&p.repeat, "repeat", 1, "run the operation N times and compare compile-per-call vs plan reuse")
	fs.Float64Var(&p.ragged, "ragged", 0, "run a skewed-size ragged study with Zipf exponent <skew> (block sizes ~ b/rank^skew)")
	fs.StringVar(&p.kernel, "kernel", "sum:int32", "reduction kernel as op:type (sum|min|max : int32|int64|float32|float64)")
	fs.StringVar(&p.segments, "segments", "", "pipeline the packed Bruck schedule over <s> segments (2..), 'auto' for the model-tuned count, empty for monolithic")
	fs.BoolVar(&p.crossover, "crossover-segments", false, "sweep block sizes and report where the segmented index schedule overtakes the monolithic one")
	fs.StringVar(&p.topology, "topology", "", "two-level topology spec <groups>x<size>[:beta,tau/beta,tau] — run the hierarchical schedule on it (the spec defines the machine size; -n is ignored)")
	fs.BoolVar(&p.topoCross, "crossover-topology", false, "sweep (n, b, inter/intra ratio) and tabulate flat vs hierarchical modeled times")
	fs.BoolVar(&p.reportJSON, cli.FlagReportJSON, false, "emit the JSON report instead of text")
	c := &command{name: "run", summary: "run one collective and report schedule measures vs bounds", fs: fs}
	c.exec = func(args []string, w io.Writer) error {
		if err := fs.Parse(args); err != nil {
			return err
		}
		p.transport, p.chaosInner, p.chaosSeed, p.stragglers = tf.Transport, tf.ChaosInner, tf.ChaosSeed, tf.Stragglers
		return runOp(w, p)
	}
	return c
}

func runOp(w io.Writer, p params) error {
	rp := newReporter(w, p.reportJSON)
	if err := runOpInto(rp, p); err != nil {
		return err
	}
	return rp.flush()
}

func runOpInto(rp *reporter, p params) error {
	w := rp.text()
	if p.crossover {
		return runSegmentCrossover(rp, p)
	}
	if p.topoCross {
		return runTopoCrossover(rp, p)
	}
	if p.topology != "" {
		return runTopology(rp, p)
	}
	tfl := cli.TransportFlags{Transport: p.transport, ChaosInner: p.chaosInner, ChaosSeed: p.chaosSeed, Stragglers: p.stragglers}
	if tfl.Transport == "" {
		tfl.Transport = "chan"
	}
	if tfl.ChaosInner == "" {
		tfl.ChaosInner = "chan"
	}
	topts, err := tfl.EngineOptions()
	if err != nil {
		return err
	}
	eopts := append([]mpsim.Option{mpsim.Ports(p.k), mpsim.Record(true)}, topts...)
	e, err := mpsim.New(p.n, eopts...)
	if err != nil {
		return err
	}
	g := mpsim.WorldGroup(p.n)

	if p.ragged > 0 {
		return runRagged(rp, p, e, g)
	}

	kv := cli.KV("run")
	kv.Add("op", p.op)
	kv.Add("n", p.n)
	kv.Add("k", p.k)
	kv.Add("b", p.b)
	var res *collective.Result
	switch p.op {
	case "index":
		opt := collective.IndexOptions{}
		switch p.alg {
		case "", "bruck":
			opt.Algorithm = collective.IndexBruck
		case "direct":
			opt.Algorithm = collective.IndexDirect
		case "xor":
			opt.Algorithm = collective.IndexPairwiseXOR
		default:
			return fmt.Errorf("unknown index algorithm %q", p.alg)
		}
		switch p.radix {
		case "":
		case "auto":
			opt.Radix = collective.OptimalRadix(costmodel.SP1, p.n, p.b, p.k, false)
			fmt.Fprintf(w, "tuned radix: %d\n", opt.Radix)
			kv.Add("tuned_radix", opt.Radix)
		default:
			r, err := strconv.Atoi(p.radix)
			if err != nil {
				return fmt.Errorf("bad radix %q: %v", p.radix, err)
			}
			opt.Radix = r
		}
		seg, err := parseSegments(p.segments)
		if err != nil {
			return err
		}
		opt.Segments = seg
		if p.repeat > 1 {
			return runRepeat(rp, p, e, g, collective.Spec{Op: collective.OpIndex, Index: opt}, opt.Algorithm)
		}
		if res, err = runOnce(e, g, collective.Spec{Op: collective.OpIndex, BlockLen: p.b, Index: opt}, p.flat); err != nil {
			return err
		}
		fmt.Fprintf(w, "index: n=%d k=%d b=%d alg=%v path=%s transport=%s\n", p.n, p.k, p.b, opt.Algorithm, pathName(p.flat), e.Transport())
		if p.segments != "" {
			fmt.Fprintf(w, "  segments requested: %s\n", p.segments)
			kv.Add("segments", p.segments)
		}
		fmt.Fprintf(w, "  C1 = %d rounds   (lower bound %d)\n", res.C1, lowerbound.IndexRounds(p.n, p.k))
		fmt.Fprintf(w, "  C2 = %d bytes    (lower bound %d)\n", res.C2, lowerbound.IndexVolume(p.n, p.b, p.k))
		kv.Add("alg", opt.Algorithm)
		kv.Add("c1_lower_bound", lowerbound.IndexRounds(p.n, p.k))
		kv.Add("c2_lower_bound", lowerbound.IndexVolume(p.n, p.b, p.k))

	case "concat":
		opt := collective.ConcatOptions{}
		switch p.alg {
		case "", "circulant":
			opt.Algorithm = collective.ConcatCirculant
		case "folklore":
			opt.Algorithm = collective.ConcatFolklore
		case "ring":
			opt.Algorithm = collective.ConcatRing
		case "recdbl":
			opt.Algorithm = collective.ConcatRecursiveDoubling
		default:
			return fmt.Errorf("unknown concat algorithm %q", p.alg)
		}
		if p.repeat > 1 {
			return runRepeat(rp, p, e, g, collective.Spec{Op: collective.OpConcat, Concat: opt}, opt.Algorithm)
		}
		var err error
		if res, err = runOnce(e, g, collective.Spec{Op: collective.OpConcat, BlockLen: p.b, Concat: opt}, p.flat); err != nil {
			return err
		}
		fmt.Fprintf(w, "concat: n=%d k=%d b=%d alg=%v path=%s transport=%s\n", p.n, p.k, p.b, opt.Algorithm, pathName(p.flat), e.Transport())
		fmt.Fprintf(w, "  C1 = %d rounds   (lower bound %d)\n", res.C1, lowerbound.ConcatRounds(p.n, p.k))
		fmt.Fprintf(w, "  C2 = %d bytes    (lower bound %d)\n", res.C2, lowerbound.ConcatVolume(p.n, p.b, p.k))
		kv.Add("alg", opt.Algorithm)
		kv.Add("c1_lower_bound", lowerbound.ConcatRounds(p.n, p.k))
		kv.Add("c2_lower_bound", lowerbound.ConcatVolume(p.n, p.b, p.k))

	case "reducescatter", "allreduce":
		return runReduce(rp, p, e, g)

	default:
		return fmt.Errorf("unknown operation %q", p.op)
	}

	fmt.Fprintf(w, "  verified against the direct reference\n")
	fmt.Fprintf(w, "  total traffic = %d bytes in %d messages\n", res.TotalBytes, res.Messages)
	fmt.Fprintf(w, "  model time (SP-1 linear):    %v\n", costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2)))
	fmt.Fprintf(w, "  model time (SP-1 extended):  %v\n", costmodel.Duration(costmodel.SP1Measured.Time(res.C1, res.C2)))
	kv.Add("path", pathName(p.flat))
	kv.Add("transport", e.Transport())
	kv.Add("c1", res.C1)
	kv.Add("c2", res.C2)
	kv.Add("total_bytes", res.TotalBytes)
	kv.Add("messages", res.Messages)
	kv.Add("verified_direct_reference", true)
	kv.Add("model_sp1_linear", costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2)))
	kv.Add("model_sp1_extended", costmodel.Duration(costmodel.SP1Measured.Time(res.C1, res.C2)))
	if cp, err := costmodel.CriticalPath(costmodel.SP1, p.n, e.Metrics().Events()); err == nil {
		fmt.Fprintf(w, "  critical path (SP-1 linear): %v\n", costmodel.Duration(cp))
		kv.Add("critical_path_sp1", costmodel.Duration(cp))
	}
	rp.add(kv)
	return nil
}

// runOnce compiles the spec, executes it once on the study pattern and
// checks every output block against the direct reference. The legacy
// path crosses the [][][]byte shape on the way in and out — one copy
// each, as the public Index/Concat adapters do.
func runOnce(e *mpsim.Engine, g *mpsim.Group, s collective.Spec, flat bool) (*collective.Result, error) {
	n, inBlocks := g.Size(), g.Size()
	if s.Op == collective.OpConcat {
		inBlocks = 1
	}
	in, err := buffers.New(n, inBlocks, s.BlockLen)
	if err != nil {
		return nil, err
	}
	out, err := buffers.New(n, n, s.BlockLen)
	if err != nil {
		return nil, err
	}
	fillPattern(in)
	if !flat {
		if in, err = buffers.FromMatrix(in.ToMatrix()); err != nil {
			return nil, err
		}
	}
	res, err := execOnce(e, g, s, in, out)
	if err != nil {
		return nil, err
	}
	if !flat {
		out.ToMatrix()
	}
	// out[i][j] = in[j][i] for the index, in[j] (the only block) for concat.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out.Block(i, j), in.Block(j, i%inBlocks)) {
				return nil, fmt.Errorf("%v: out[%d][%d] differs from the direct reference", s.Op, i, j)
			}
		}
	}
	return res, nil
}

// execOnce compiles the spec at the buffers' block size and executes it
// once: the compile-per-call path.
func execOnce(e *mpsim.Engine, g *mpsim.Group, s collective.Spec, in, out *buffers.Buffers) (*collective.Result, error) {
	s.BlockLen = in.BlockLen()
	pl, err := collective.Compile(e, g, s)
	if err != nil {
		return nil, err
	}
	return pl.Execute(in, out)
}

func pathName(flat bool) string {
	if flat {
		return "flat"
	}
	return "legacy"
}

// runRepeat is the plan-reuse study of the index or the concatenation
// (where compile-per-call includes re-solving the last-round table
// partition): the same spec executed p.repeat times compiling on every
// call, then p.repeat times through one precompiled plan, with a
// byte-level equivalence check between the two result sets.
func runRepeat(rp *reporter, p params, e *mpsim.Engine, g *mpsim.Group, spec collective.Spec, alg fmt.Stringer) error {
	inBlocks := p.n
	if spec.Op == collective.OpConcat {
		inBlocks = 1
	}
	fin, err := buffers.New(p.n, inBlocks, p.b)
	if err != nil {
		return err
	}
	fillPattern(fin)
	perCallOut, err := buffers.New(p.n, p.n, p.b)
	if err != nil {
		return err
	}
	planOut, err := buffers.New(p.n, p.n, p.b)
	if err != nil {
		return err
	}
	spec.BlockLen = p.b
	plan, err := collective.Compile(e, g, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(rp.text(), "%s plan-reuse study: n=%d k=%d b=%d alg=%v transport=%s repeat=%d\n",
		spec.Op, p.n, p.k, p.b, alg, e.Transport(), p.repeat)
	return repeatStudy(rp, p, alg.String(), e, plan,
		func() error { _, err := execOnce(e, g, spec, fin, perCallOut); return err },
		func() error { _, err := plan.Execute(fin, planOut); return err },
		perCallOut, planOut)
}

// repeatStudy times the two execution modes, checks byte equivalence,
// and prints the comparison.
func repeatStudy(rp *reporter, p params, alg string, e *mpsim.Engine, plan *collective.Plan,
	perCall, planned func() error, perCallOut, planOut *buffers.Buffers) error {
	w := rp.text()
	// Warm both paths once so transport pools reach steady state before
	// the timed loops.
	if err := perCall(); err != nil {
		return err
	}
	if err := planned(); err != nil {
		return err
	}

	//lint:allow detrand wall-clock latency is the quantity being reported, not part of any snapshot
	start := time.Now()
	for i := 0; i < p.repeat; i++ {
		if err := perCall(); err != nil {
			return err
		}
	}
	perCallAvg := time.Since(start) / time.Duration(p.repeat)

	//lint:allow detrand wall-clock latency is the quantity being reported, not part of any snapshot
	start = time.Now()
	for i := 0; i < p.repeat; i++ {
		if err := planned(); err != nil {
			return err
		}
	}
	planAvg := time.Since(start) / time.Duration(p.repeat)

	if !perCallOut.Equal(planOut) {
		return fmt.Errorf("plan execution diverged from compile-per-call results")
	}
	fmt.Fprintf(w, "  schedule: %d rounds, largest pooled buffer %d bytes\n", plan.Rounds(), plan.MaxMessageBytes())
	fmt.Fprintf(w, "  compile-per-call: %v/op\n", perCallAvg)
	fmt.Fprintf(w, "  plan-reuse:       %v/op\n", planAvg)
	if planAvg > 0 {
		fmt.Fprintf(w, "  speedup:          %.2fx\n", float64(perCallAvg)/float64(planAvg))
	}
	fmt.Fprintln(w, "  results byte-identical across modes: ok")

	kv := cli.KV("plan-reuse-study")
	kv.Add("op", p.op)
	kv.Add("n", p.n)
	kv.Add("k", p.k)
	kv.Add("b", p.b)
	kv.Add("alg", alg)
	kv.Add("transport", e.Transport())
	kv.Add("repeat", p.repeat)
	kv.Add("rounds", plan.Rounds())
	kv.Add("max_message_bytes", plan.MaxMessageBytes())
	kv.Add("compile_per_call_ns", perCallAvg.Nanoseconds())
	kv.Add("plan_reuse_ns", planAvg.Nanoseconds())
	if planAvg > 0 {
		kv.Add("speedup", fmt.Sprintf("%.2f", float64(perCallAvg)/float64(planAvg)))
	}
	kv.Add("byte_identical", true)
	rp.add(kv)
	return nil
}

// fillPattern writes the deterministic study pattern into a flat
// buffer.
func fillPattern(b *buffers.Buffers) {
	fillPatternBytes(b.Bytes())
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

// studyEntry is one candidate schedule of the ragged study.
type studyEntry struct {
	name string
	plan *collective.Plan
	err  error
}

// runRagged is the skewed-size study: every ragged-capable schedule of
// the chosen operation runs on the same Zipf-ish layout, each result is
// verified byte-for-byte against a locally computed reference, and the
// schedules' measures and model times are tabulated.
func runRagged(rp *reporter, p params, e *mpsim.Engine, g *mpsim.Group) error {
	w := rp.text()
	cache := collective.NewPlanCache()
	kv := cli.KV("ragged-study")
	kv.Add("op", p.op)
	kv.Add("n", p.n)
	kv.Add("k", p.k)
	kv.Add("b", p.b)
	kv.Add("skew", fmt.Sprintf("%.2f", p.ragged))
	kv.Add("transport", e.Transport())
	sched := &cli.Table{Name: "schedules", Columns: []string{"schedule", "c1", "c2", "model_sp1"}}
	switch p.op {
	case "index":
		counts := zipfCounts(p.n, p.b, p.ragged)
		l, err := blocks.Ragged(counts)
		if err != nil {
			return err
		}
		vin, err := buffers.NewRagged(l)
		if err != nil {
			return err
		}
		fillPatternBytes(vin.Bytes())
		// The direct per-pair reference exchange, computed locally:
		// out.Block(i, j) = in.Block(j, i).
		ref, err := buffers.NewRagged(l.Transpose())
		if err != nil {
			return err
		}
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				copy(ref.Block(i, j), vin.Block(j, i))
			}
		}
		zeros := 0
		for i := range counts {
			for j := range counts[i] {
				if counts[i][j] == 0 {
					zeros++
				}
			}
		}
		fmt.Fprintf(w, "ragged index study: n=%d k=%d b=%d skew=%.2f transport=%s\n",
			p.n, p.k, p.b, p.ragged, e.Transport())
		fmt.Fprintf(w, "  layout: %d payload bytes, largest block %d, zero-length blocks %d, C2 lower bound %d\n",
			l.Total(), l.Max(), zeros, lowerbound.IndexVVolume(counts, p.k))
		kv.Add("payload_bytes", l.Total())
		kv.Add("largest_block", l.Max())
		kv.Add("zero_length_blocks", zeros)
		kv.Add("c2_lower_bound", lowerbound.IndexVVolume(counts, p.k))

		spec := collective.Spec{Op: collective.OpIndexV, Layout: l}
		defPlan, defErr := cache.Get(e, g, spec)
		spec.Index.Radix = p.n
		maxPlan, maxErr := cache.Get(e, g, spec)
		spec.Index = collective.IndexOptions{Algorithm: collective.IndexDirect}
		dirPlan, dirErr := cache.Get(e, g, spec)
		autoPlan, autoErr := cache.Get(e, g, collective.Spec{Op: collective.OpIndexV, Layout: l, Auto: &costmodel.SP1})
		plans := []studyEntry{
			{"bruck r=k+1", defPlan, defErr},
			{fmt.Sprintf("bruck r=%d", p.n), maxPlan, maxErr},
			{"direct", dirPlan, dirErr},
			{"auto (SP-1)", autoPlan, autoErr},
		}

		for _, entry := range plans {
			if entry.err != nil {
				return fmt.Errorf("%s: %v", entry.name, entry.err)
			}
			vout, err := buffers.NewRagged(l.Transpose())
			if err != nil {
				return err
			}
			res, err := entry.plan.ExecuteV(vin, vout)
			if err != nil {
				return fmt.Errorf("%s: %v", entry.name, err)
			}
			if !vout.Equal(ref) {
				return fmt.Errorf("%s: result diverges from the direct reference exchange", entry.name)
			}
			fmt.Fprintf(w, "  %-12s C1=%4d  C2=%8d  model(SP-1)=%v\n",
				entry.name, res.C1, res.C2, costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2)))
			sched.AddRow(entry.name, fmt.Sprint(res.C1), fmt.Sprint(res.C2),
				fmt.Sprint(costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2))))
		}
		fmt.Fprintf(w, "  auto dispatch picked: %s (%d rounds)\n", autoPlan.Algorithm(), autoPlan.Rounds())
		fmt.Fprintln(w, "  all results byte-identical to the direct reference exchange: ok")
		kv.Add("auto_pick", autoPlan.Algorithm())
		kv.Add("byte_identical", true)
		rp.add(kv)
		rp.add(sched)
		return nil

	case "concat":
		counts := zipfVector(p.n, p.b, p.ragged)
		l, err := blocks.RaggedVector(counts)
		if err != nil {
			return err
		}
		vin, err := buffers.NewRagged(l)
		if err != nil {
			return err
		}
		fillPatternBytes(vin.Bytes())
		outL, err := l.ConcatOut()
		if err != nil {
			return err
		}
		ref, err := buffers.NewRagged(outL)
		if err != nil {
			return err
		}
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				copy(ref.Block(i, j), vin.Block(j, 0))
			}
		}
		fmt.Fprintf(w, "ragged concat study: n=%d k=%d b=%d skew=%.2f transport=%s\n",
			p.n, p.k, p.b, p.ragged, e.Transport())
		fmt.Fprintf(w, "  layout: %d payload bytes, largest block %d, C2 lower bound %d\n",
			l.Total(), l.Max(), lowerbound.ConcatVVolume(counts, p.k))
		kv.Add("payload_bytes", l.Total())
		kv.Add("largest_block", l.Max())
		kv.Add("c2_lower_bound", lowerbound.ConcatVVolume(counts, p.k))

		circ, cerr := cache.Get(e, g, collective.Spec{Op: collective.OpConcatV, Layout: l})
		ring, rerr := cache.Get(e, g, collective.Spec{Op: collective.OpConcatV, Layout: l, Concat: collective.ConcatOptions{Algorithm: collective.ConcatRing}})
		auto, aerr := cache.Get(e, g, collective.Spec{Op: collective.OpConcatV, Layout: l, Auto: &costmodel.SP1})
		for _, en := range []studyEntry{
			{"circulant", circ, cerr},
			{"ring", ring, rerr},
			{"auto (SP-1)", auto, aerr},
		} {
			if en.err != nil {
				return fmt.Errorf("%s: %v", en.name, en.err)
			}
			vout, err := buffers.NewRagged(outL)
			if err != nil {
				return err
			}
			res, err := en.plan.ExecuteV(vin, vout)
			if err != nil {
				return fmt.Errorf("%s: %v", en.name, err)
			}
			if !vout.Equal(ref) {
				return fmt.Errorf("%s: result diverges from the reference concatenation", en.name)
			}
			fmt.Fprintf(w, "  %-12s C1=%4d  C2=%8d  model(SP-1)=%v\n",
				en.name, res.C1, res.C2, costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2)))
			sched.AddRow(en.name, fmt.Sprint(res.C1), fmt.Sprint(res.C2),
				fmt.Sprint(costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2))))
		}
		fmt.Fprintf(w, "  auto dispatch picked: %s (%d rounds)\n", auto.Algorithm(), auto.Rounds())
		fmt.Fprintln(w, "  all results byte-identical to the reference concatenation: ok")
		kv.Add("auto_pick", auto.Algorithm())
		kv.Add("byte_identical", true)
		rp.add(kv)
		rp.add(sched)
		return nil

	default:
		return fmt.Errorf("unknown operation %q", p.op)
	}
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
// size. The study sweeps block sizes through the sweep harness's
// measured round structure, tabulates both model times, and reports the
// crossover block size.
func runSegmentCrossover(rp *reporter, p params) error {
	w := rp.text()
	if p.op != "index" {
		return fmt.Errorf("-crossover-segments studies the index collective, got -op %s", p.op)
	}
	r := p.k + 1
	switch p.radix {
	case "":
	case "auto":
		return fmt.Errorf("-crossover-segments needs a fixed radix: 'auto' would change the round structure per block size")
	default:
		v, err := strconv.Atoi(p.radix)
		if err != nil {
			return fmt.Errorf("bad radix %q: %v", p.radix, err)
		}
		r = v
	}
	autoSeg := p.segments == "" || p.segments == "auto"
	fixed := 0
	if !autoSeg {
		v, err := strconv.Atoi(p.segments)
		if err != nil || v < 2 {
			return fmt.Errorf("bad segments %q: the crossover study wants a count >= 2 or 'auto'", p.segments)
		}
		fixed = v
	}
	h := sweep.NewHarness(costmodel.SP1)
	tr := p.transport
	switch tr {
	case "", "chan":
		tr = "chan"
	case "slot":
		h.Backend = mpsim.BackendSlot
	default:
		return fmt.Errorf("-crossover-segments supports the chan and slot transports, got %q", p.transport)
	}

	maxB := 64 << 10
	if p.b > maxB {
		maxB = p.b
	}
	segName := "segmented(auto)"
	if !autoSeg {
		segName = fmt.Sprintf("segmented(s=%d)", fixed)
	}
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
			return err
		}
		s := fixed
		if autoSeg {
			s = collective.OptimalSegments(costmodel.SP1, p.n, b, r, p.k)
		}
		sp, err := h.SegmentedPoint(p.n, r, p.k, b, s)
		if err != nil {
			return err
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
			return err
		}
		crossover = x
	}

	fmt.Fprintf(w, "segment crossover study: n=%d k=%d r=%d segments=%s transport=%s (SP-1 linear model)\n",
		p.n, p.k, r, segName, tr)
	fmt.Fprint(w, sweep.RenderSeries([]sweep.Series{mono, seg}))
	if crossover >= 0 {
		fmt.Fprintf(w, "crossover: segmented schedule wins from b = %d bytes\n", crossover)
	} else {
		fmt.Fprintf(w, "crossover: segmented schedule never overtakes the monolithic one up to b = %d\n", maxB)
	}

	kv := cli.KV("segment-crossover")
	kv.Add("n", p.n)
	kv.Add("k", p.k)
	kv.Add("radix", r)
	kv.Add("segments", segName)
	kv.Add("max_b", maxB)
	kv.Add("crossover_b", crossover)
	rp.add(kv)
	rp.add(st)
	rp.add(sweep.SeriesReport("segment-model-times", []sweep.Series{mono, seg}, "b"))
	return nil
}

// fillPatternBytes writes the deterministic study pattern into a slab.
func fillPatternBytes(data []byte) {
	for i := range data {
		data[i] = byte(i*11 + 5)
	}
}

// parseKernel parses the -kernel flag's op:type form.
func parseKernel(s string) (buffers.ReduceOp, buffers.DataType, error) {
	op, typ, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad kernel %q, want op:type (e.g. sum:float32)", s)
	}
	var rop buffers.ReduceOp
	switch op {
	case "sum":
		rop = buffers.Sum
	case "min":
		rop = buffers.Min
	case "max":
		rop = buffers.Max
	default:
		return 0, 0, fmt.Errorf("unknown reduce op %q", op)
	}
	var rtyp buffers.DataType
	switch typ {
	case "int32":
		rtyp = buffers.Int32
	case "int64":
		rtyp = buffers.Int64
	case "float32":
		rtyp = buffers.Float32
	case "float64":
		rtyp = buffers.Float64
	default:
		return 0, 0, fmt.Errorf("unknown element type %q", typ)
	}
	return rop, rtyp, nil
}

// fillElements writes deterministic small integer-valued elements of
// the given type — exactly representable in every type, so the
// simulated reduction is bit-checkable against the serial reference
// regardless of combine order.
func fillElements(data []byte, typ buffers.DataType, seed int) {
	for e := 0; e < len(data)/typ.Size(); e++ {
		v := (seed+e*7)%16 - 8
		switch typ {
		case buffers.Int32:
			buffers.PutInt32s(data[e*4:], []int32{int32(v)})
		case buffers.Int64:
			buffers.PutInt64s(data[e*8:], []int64{int64(v)})
		case buffers.Float32:
			buffers.PutFloat32s(data[e*4:], []float32{float32(v)})
		case buffers.Float64:
			buffers.PutFloat64s(data[e*8:], []float64{float64(v)})
		}
	}
}

// runReduce runs a reduction collective, verifies it against the
// locally computed serial reduce, and reports the schedule against the
// reduction lower bounds.
func runReduce(rp *reporter, p params, e *mpsim.Engine, g *mpsim.Group) error {
	w := rp.text()
	rop, rtyp, err := parseKernel(p.kernel)
	if err != nil {
		return err
	}
	fn, err := buffers.Kernel(rop, rtyp)
	if err != nil {
		return err
	}
	kind := collective.ReduceScatterKind
	if p.op == "allreduce" {
		kind = collective.AllReduceKind
	}
	opt := collective.ReduceOptions{
		Kernel:    fn,
		ElemSize:  rtyp.Size(),
		KernelKey: rop.String() + "/" + rtyp.String(),
	}
	auto := false
	switch p.alg {
	case "", "ring":
		opt.Algorithm = collective.ReduceRing
	case "halving":
		opt.Algorithm = collective.ReduceHalving
	case "bruck":
		opt.Algorithm = collective.ReduceBruck
		if p.radix != "" {
			r, err := strconv.Atoi(p.radix)
			if err != nil {
				return fmt.Errorf("bad radix %q: %v", p.radix, err)
			}
			opt.Radix = r
		}
	case "auto":
		auto = true
	default:
		return fmt.Errorf("unknown reduce algorithm %q", p.alg)
	}
	seg, err := parseSegments(p.segments)
	if err != nil {
		return err
	}
	opt.Segments = seg

	spec := collective.Spec{Op: kind.Op(), BlockLen: p.b, Reduce: opt}
	if auto {
		spec.Auto = &costmodel.SP1
	}
	plan, err := collective.Compile(e, g, spec)
	if err != nil {
		return err
	}

	in, err := buffers.New(p.n, p.n, p.b)
	if err != nil {
		return err
	}
	fillElements(in.Bytes(), rtyp, 5)
	outBlocks := 1
	if kind == collective.AllReduceKind {
		outBlocks = p.n
	}
	out, err := buffers.New(p.n, outBlocks, p.b)
	if err != nil {
		return err
	}
	res, err := plan.Execute(in, out)
	if err != nil {
		return err
	}

	// Serial reference: chunk j combined in rank order.
	for j := 0; j < p.n; j++ {
		want := append([]byte(nil), in.Block(0, j)...)
		for q := 1; q < p.n; q++ {
			if p.b > 0 {
				fn(want, in.Block(q, j))
			}
		}
		rows := []int{j}
		if kind == collective.AllReduceKind {
			rows = make([]int, p.n)
			for i := range rows {
				rows[i] = i
			}
		}
		for _, i := range rows {
			blk := out.Block(i, 0)
			if kind == collective.AllReduceKind {
				blk = out.Block(i, j)
			}
			if !bytes.Equal(blk, want) {
				return fmt.Errorf("chunk %d on rank %d diverges from the serial reduce", j, i)
			}
		}
	}

	if auto {
		fmt.Fprintf(w, "auto dispatch picked: %s\n", plan.Algorithm())
	}
	c1lb, c2lb := lowerbound.ReduceScatterRounds(p.n, p.k), lowerbound.ReduceScatterVolume(p.n, p.b, p.k)
	if kind == collective.AllReduceKind {
		c1lb, c2lb = lowerbound.AllReduceRounds(p.n, p.k), lowerbound.AllReduceVolume(p.n, p.b, p.k)
	}
	fmt.Fprintf(w, "%s: n=%d k=%d b=%d alg=%s kernel=%s transport=%s\n",
		p.op, p.n, p.k, p.b, plan.Algorithm(), p.kernel, e.Transport())
	fmt.Fprintf(w, "  C1 = %d rounds   (lower bound %d)\n", res.C1, c1lb)
	fmt.Fprintf(w, "  C2 = %d bytes    (lower bound %d)\n", res.C2, c2lb)
	fmt.Fprintf(w, "  total traffic = %d bytes in %d messages\n", res.TotalBytes, res.Messages)
	fmt.Fprintf(w, "  model time (SP-1 linear):    %v\n", costmodel.Duration(costmodel.SP1.Time(res.C1, res.C2)))
	fmt.Fprintf(w, "  model time (SP-1 extended):  %v\n", costmodel.Duration(costmodel.SP1Measured.Time(res.C1, res.C2)))
	fmt.Fprintln(w, "  result byte-identical to the serial reference reduce: ok")

	kv := cli.KV("reduce")
	kv.Add("op", p.op)
	kv.Add("n", p.n)
	kv.Add("k", p.k)
	kv.Add("b", p.b)
	kv.Add("alg", plan.Algorithm())
	if auto {
		kv.Add("auto_pick", plan.Algorithm())
	}
	kv.Add("kernel", p.kernel)
	kv.Add("transport", e.Transport())
	kv.Add("c1", res.C1)
	kv.Add("c1_lower_bound", c1lb)
	kv.Add("c2", res.C2)
	kv.Add("c2_lower_bound", c2lb)
	kv.Add("total_bytes", res.TotalBytes)
	kv.Add("messages", res.Messages)
	kv.Add("verified_serial_reference", true)
	rp.add(kv)
	return nil
}
