package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bruck"
	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/circulant"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// Layers are measured from outside, by timing calls into their exported
// functions on the workload's own shapes. layerEnv is the harness's
// engine for that: the same n, k, topology and transport as the
// workload's Machine, which keeps its engine private.
type layerEnv struct {
	eng        *mpsim.Engine
	world      *mpsim.Group
	topo       *costmodel.Topology
	cache      *collective.PlanCache
	sumFloat32 collective.ReduceOptions
}

func newLayerEnv(w *workload, backend mpsim.Backend, record bool) (*layerEnv, error) {
	ly := &layerEnv{world: mpsim.WorldGroup(w.n), cache: collective.NewPlanCache()}
	opts := []mpsim.Option{mpsim.Ports(w.k), mpsim.WithTransport(backend), mpsim.Record(record)}
	var err error
	if ly.topo, err = w.topo(); err != nil {
		return nil, err
	}
	if ly.topo != nil {
		opts = append(opts, mpsim.WithTopology(ly.topo.GroupAssignment()))
	}
	kernel, err := buffers.Kernel(buffers.Sum, buffers.Float32)
	if err != nil {
		return nil, err
	}
	ly.sumFloat32 = collective.ReduceOptions{Kernel: kernel, ElemSize: buffers.Float32.Size(), KernelKey: "sum/float32"}
	ly.eng, err = mpsim.New(w.n, opts...)
	return ly, err
}

// replayRound is one rank's part of one recorded round.
type replayRound struct {
	sends []mpsim.Send
	from  []int
	into  [][]byte
}

// replay is an op's recorded message stream as bare ExchangeInto rounds
// with scratch payloads: what the engine and transport do for the op,
// with the collective's packing, rotating and combining taken out.
type replay struct {
	ranks [][]replayRound // nil for a rank that took no part
}

func buildReplay(n int, events []mpsim.Event, scratch *scratchBufs) *replay {
	rounds := 0
	for _, ev := range events {
		rounds = max(rounds, ev.Round+1)
	}
	rp := &replay{ranks: make([][]replayRound, n)}
	at := func(rank, round int) *replayRound {
		if rp.ranks[rank] == nil {
			rp.ranks[rank] = make([]replayRound, rounds)
		}
		return &rp.ranks[rank][round]
	}
	for _, ev := range events {
		s := at(ev.Src, ev.Round)
		s.sends = append(s.sends, mpsim.Send{To: ev.Dst, Data: scratch.send(ev.Src, ev.Size)})
		d := at(ev.Dst, ev.Round)
		d.into = append(d.into, scratch.recv(ev.Dst, len(d.from), ev.Size))
		d.from = append(d.from, ev.Src)
	}
	return rp
}

func (rp *replay) body(p *mpsim.Proc) error {
	for _, rd := range rp.ranks[p.Rank()] {
		if len(rd.sends) == 0 && len(rd.from) == 0 {
			p.Skip()
			continue
		}
		if err := p.ExchangeInto(rd.sends, rd.from, rd.into); err != nil {
			return err
		}
	}
	return nil
}

// scratchBufs are the replay's payloads, shared by every op: per rank
// one send buffer and one receive buffer per port, each as long as the
// largest recorded message.
type scratchBufs struct {
	size    int
	sendBuf [][]byte
	recvBuf [][][]byte
}

func (s *scratchBufs) send(rank, size int) []byte {
	if s.sendBuf[rank] == nil {
		s.sendBuf[rank] = make([]byte, s.size)
	}
	return s.sendBuf[rank][:size]
}

func (s *scratchBufs) recv(rank, slot, size int) []byte {
	for len(s.recvBuf[rank]) <= slot {
		s.recvBuf[rank] = append(s.recvBuf[rank], make([]byte, s.size))
	}
	return s.recvBuf[rank][slot][:size]
}

// layerOp is a slot's view from below the facade: its plan on the
// harness's engine and its replay.
type layerOp struct {
	plan   *collective.Plan
	replay *replay
	sizes  []int // recorded message sizes
}

// prepareLayers compiles every slot on the harness's engine and records
// its message stream once on a recording twin.
func prepareLayers(w *workload, inst *instance) (*layerEnv, map[*op]*layerOp, error) {
	ly, err := newLayerEnv(w, mpsim.BackendChan, false)
	if err != nil {
		return nil, nil, err
	}
	rec, err := newLayerEnv(w, mpsim.BackendChan, true)
	if err != nil {
		return nil, nil, err
	}
	recorded := map[*op][]mpsim.Event{}
	scratch := &scratchBufs{sendBuf: make([][]byte, w.n), recvBuf: make([][][]byte, w.n)}
	for _, o := range inst.ops {
		pl, err := o.compile(rec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: compile: %w", o.name, err)
		}
		if _, err := o.execute(pl); err != nil {
			return nil, nil, fmt.Errorf("%s: execute: %w", o.name, err)
		}
		recorded[o] = rec.eng.Metrics().Events()
		for _, ev := range recorded[o] {
			scratch.size = max(scratch.size, ev.Size)
		}
	}
	los := map[*op]*layerOp{}
	for _, o := range inst.ops {
		lo := &layerOp{replay: buildReplay(w.n, recorded[o], scratch)}
		for _, ev := range recorded[o] {
			lo.sizes = append(lo.sizes, ev.Size)
		}
		if lo.plan, err = o.compile(ly); err != nil {
			return nil, nil, fmt.Errorf("%s: compile: %w", o.name, err)
		}
		los[o] = lo
	}
	return ly, los, nil
}

// span is one timed call at a layer boundary. The four boundaries of an
// op are measured back to back on the same inputs, not nested in one
// call; Parent names the boundary that contains this one in a real call.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var boundaries = []string{"bruck.call", "collective.execute", "mpsim.replay", "mpsim.run_empty"}

func empty(*mpsim.Proc) error { return nil }

// tracedPass records one span per op at each boundary and returns the
// spans and each boundary's durations in ns. It alternates between the
// boundaries in batches of whole cycles, batchOps ops at least, so each
// is timed in its own loop, for about budget in all. Every traced call
// is verified. Each round starts with a batch of plain calls, checked
// one in verifyEvery like the timed pass: durs["untraced"], the
// reference the traced calls are compared with, taken under the same
// alternation and at the same time.
func tracedPass(r *runner, ly *layerEnv, los map[*op]*layerOp, budget time.Duration, batchOps, verifyEvery int) ([]span, map[string][]float64, error) {
	var spans []span
	durs := map[string][]float64{}
	origin := now()
	record := func(boundary, id int, start time.Time, d time.Duration) {
		sp := span{Name: boundaries[boundary], Op: id, Start: int64(start.Sub(origin)), End: int64(start.Sub(origin) + d)}
		if boundary > 0 {
			sp.Parent = boundaries[boundary-1]
		}
		spans = append(spans, sp)
		durs[sp.Name] = append(durs[sp.Name], float64(d))
	}
	var batch []*op
	for len(batch) < batchOps {
		batch = append(batch, r.inst.cycle...)
	}
	below := []func(o *op) error{
		func(o *op) error { _, err := o.execute(los[o].plan); return err },
		func(o *op) error { return ly.eng.Run(los[o].replay.body) },
		func(*op) error { return ly.eng.Run(empty) },
	}
	for first := 0; first == 0 || now().Sub(origin) < budget; first += len(batch) {
		for _, o := range batch {
			_, d := r.do(o, (r.step+1)%verifyEvery == 0)
			durs["untraced"] = append(durs["untraced"], float64(d))
		}
		for i, o := range batch {
			t0, d := r.do(o, true)
			record(0, first+i, t0, d)
		}
		for b, f := range below {
			for i, o := range batch {
				t0 := now()
				err := f(o)
				record(b+1, first+i, t0, now().Sub(t0))
				if err != nil {
					return nil, nil, fmt.Errorf("%s: %s: %w", o.name, boundaries[b+1], err)
				}
			}
		}
	}
	return spans, durs, nil
}

// sample calls f until budget has passed (five times at least) and
// returns the median duration in ns and the number of calls.
func sample(budget time.Duration, f func()) (float64, int) {
	var d []float64
	for start := now(); len(d) < 5 || now().Sub(start) < budget; {
		t0 := now()
		f()
		d = append(d, float64(now().Sub(t0)))
	}
	return median(d), len(d)
}

// allocsPer returns the heap allocations of one call of f, averaged
// over iters calls.
func allocsPer(iters int, f func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < iters; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(iters)
}

// must turns a probe's error into a panic that perLayer reports:
// the probes run fixed, valid shapes, so an error is a harness bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// weightedMedian returns the median of the values, each counted mult
// times.
func weightedMedian(vals, mult []int) int {
	var all []int
	for i, v := range vals {
		for j := 0; j < mult[i]; j++ {
			all = append(all, v)
		}
	}
	if len(all) == 0 {
		return 0
	}
	sort.Ints(all)
	return all[len(all)/2]
}

// shape is what the micro-probes are sized by.
type shape struct {
	msgBytes   int // median recorded message size over a cycle
	blockLen   int // median block size over a cycle
	workingSet int // input plus output bytes of all slots
}

func shapeOf(inst *instance, los map[*op]*layerOp) shape {
	var msg, msgMult, blk, blkMult []int
	var s shape
	for _, o := range inst.ops {
		for _, size := range los[o].sizes {
			msg, msgMult = append(msg, size), append(msgMult, o.mult)
		}
		blk, blkMult = append(blk, o.blockLen), append(blkMult, o.mult)
		rows, cols := o.inShape()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				s.workingSet += len(o.inBlock(i, j))
			}
		}
		s.workingSet += int(o.payload)
	}
	s.msgBytes, s.blockLen = weightedMedian(msg, msgMult), weightedMedian(blk, blkMult)
	return s
}

// ringRounds picks a round count that keeps a ring probe near 32 MiB of
// traffic: many rounds for small messages, a few for large ones.
func ringRounds(n, msgBytes int) int {
	return min(64, max(4, (32<<20)/(n*max(msgBytes, 1))))
}

// probeMpsim times the engine and both transports on their own.
func probeMpsim(w *workload, ly *layerEnv, sh shape, each time.Duration, out values) {
	out["mpsim.run_empty_allocs"] = value{allocsPer(20, func() { must(ly.eng.Run(empty)) }), 20}

	rounds := ringRounds(w.n, sh.msgBytes)
	payload := make([]byte, sh.msgBytes)
	ring := func(p *mpsim.Proc) error {
		next, prev := (p.Rank()+1)%w.n, (p.Rank()+w.n-1)%w.n
		for r := 0; r < rounds; r++ {
			got, err := p.SendRecv(next, payload, prev)
			if err != nil {
				return err
			}
			p.ReleaseBuf(got)
		}
		return nil
	}
	for _, backend := range []mpsim.Backend{mpsim.BackendChan, mpsim.BackendSlot} {
		e, err := mpsim.New(w.n, mpsim.WithTransport(backend))
		must(err)
		base, _ := sample(each/4, func() { must(e.Run(empty)) })
		ns, n := sample(each, func() { must(e.Run(ring)) })
		perRound := (ns - base) / float64(rounds)
		out["mpsim.msg_us."+string(backend)] = value{perRound / 1e3, n}
		out["mpsim.msg_gb_per_s."+string(backend)] = value{float64(w.n*sh.msgBytes) / perRound, n}
		if backend == mpsim.BackendChan {
			allocs := allocsPer(20, func() { must(e.Run(ring)) }) - allocsPer(20, func() { must(e.Run(empty)) })
			out["mpsim.msg_allocs"] = value{allocs / float64(rounds), 20}
		}
	}

	e, err := mpsim.New(w.n, mpsim.Ports(2))
	must(err)
	fan := func(p *mpsim.Proc) error {
		me := p.Rank()
		sends := []mpsim.Send{{To: (me + 1) % w.n, Data: payload}, {To: (me + 2) % w.n, Data: payload}}
		from := []int{(me + w.n - 1) % w.n, (me + w.n - 2) % w.n}
		for r := 0; r < rounds; r++ {
			got, err := p.Exchange(sends, from)
			if err != nil {
				return err
			}
			for _, b := range got {
				p.ReleaseBuf(b)
			}
		}
		return nil
	}
	base, _ := sample(each/4, func() { must(e.Run(empty)) })
	ns, n := sample(each, func() { must(e.Run(fan)) })
	out["mpsim.kport_fan_us"] = value{(ns - base) / float64(rounds) / 1e3, n}
}

// probeBuffers times the copy, rotate, combine, pack and adapter
// primitives at the workload's block and working-set sizes.
func probeBuffers(w *workload, sh shape, each time.Duration, out values) {
	gbps := func(bytes int, f func()) value {
		ns, n := sample(each, f)
		return value{float64(bytes) / ns, n}
	}
	out["buffers.working_set_mb"] = value{float64(sh.workingSet) / (1 << 20), 1}
	half := min(sh.workingSet/2, 64<<20)
	src, dst := make([]byte, half), make([]byte, half)
	out["buffers.copy_gb_per_s"] = gbps(half, func() { copy(dst, src) })

	a, err := buffers.New(w.n, w.n, sh.blockLen)
	must(err)
	out["buffers.rotate_gb_per_s"] = gbps(len(a.Bytes()), func() {
		for i := 0; i < w.n; i++ {
			buffers.RotateUp(a.Proc(i), w.n, sh.blockLen, i+1)
		}
	})

	elems := max(sh.blockLen/4, 1) * 4
	x, err := buffers.New(w.n, w.n, elems)
	must(err)
	y, err := buffers.New(w.n, w.n, elems)
	must(err)
	kernel, err := buffers.Kernel(buffers.Sum, buffers.Float32)
	must(err)
	out["buffers.combine_gb_per_s"] = gbps(len(x.Bytes()), func() {
		for i := 0; i < w.n; i++ {
			for j := 0; j < w.n; j++ {
				kernel(x.Block(i, j), y.Block(i, j))
			}
		}
	})

	tables, _ := baseLayouts()
	l, err := blocks.Ragged(tables[0])
	must(err)
	rag, err := buffers.NewRagged(l)
	must(err)
	packed := make([]byte, l.Cols()*l.Max())
	out["buffers.pack_gb_per_s"] = gbps(l.Total(), func() {
		for i := 0; i < l.Rows(); i++ {
			rag.PackRow(i, i, 1, l.Max(), packed)
		}
	})
	out["buffers.unpack_gb_per_s"] = gbps(l.Total(), func() {
		for i := 0; i < l.Rows(); i++ {
			rag.UnpackRow(i, i, 1, l.Max(), packed)
		}
	})
	ns, n := sample(each, func() { l.Digest() })
	out["blocks.layout_digest_ns"] = value{ns, n}

	matrix := a.ToMatrix()
	ns, n = sample(each, func() {
		flat, err := buffers.FromMatrix(matrix)
		must(err)
		flat.ToMatrix()
	})
	out["buffers.adapter_us"] = value{ns / 1e3, n}
}

// probePlanning times what a plan-cache miss and a set-up pay: compile,
// lookup, radix search, and the circulant schedule's ingredients.
func probePlanning(w *workload, inst *instance, ly *layerEnv, sh shape, each time.Duration, out values) {
	fresh := *ly
	compileAll := func() {
		fresh.cache = collective.NewPlanCache()
		for _, o := range inst.ops {
			_, err := o.compile(&fresh)
			must(err)
		}
	}
	ns, n := sample(each, compileAll)
	out["collective.compile_us"] = value{ns / 1e3 / float64(len(inst.ops)), n}
	out["collective.compile_allocs"] = value{allocsPer(5, compileAll) / float64(len(inst.ops)), 5}

	opt := collective.IndexOptions{Radix: 2}
	_, err := ly.cache.IndexPlan(ly.eng, ly.world, sh.blockLen, opt)
	must(err)
	const batch = 1000
	ns, n = sample(each, func() {
		for i := 0; i < batch; i++ {
			_, err := ly.cache.IndexPlan(ly.eng, ly.world, sh.blockLen, opt)
			must(err)
		}
	})
	out["collective.cache_hit_ns"] = value{ns / batch, n}

	ns, n = sample(each, func() { bruck.OptimalRadix(bruck.SP1, w.n, sh.blockLen, w.k, false) })
	out["collective.optimal_radix_us"] = value{ns / 1e3, n}

	// The circulant concatenation's last round covers n2 = n - n1 columns
	// with spans of at most n1 = (k+1)^(d-1).
	n1 := intmath.Pow(w.k+1, intmath.CeilLog(w.k+1, w.n)-1)
	ns, n = sample(each, func() {
		_, err := partition.Solve(sh.blockLen, w.n-n1, n1, w.k, partition.PreferOptimal)
		must(err)
	})
	out["partition.solve_us"] = value{ns / 1e3, n}
	ns, n = sample(each, func() {
		_, err := circulant.BuildTree(w.n, w.k, 0, circulant.Negative)
		must(err)
	})
	out["circulant.buildtree_us"] = value{ns / 1e3, n}

	ns, n = sample(each, func() {
		_, err := w.newMachine()
		must(err)
	})
	out["bruck.newmachine_us"] = value{ns / 1e3, n}
}

// poolGrowth is the live heap a machine gains per op on the two shapes
// kept out of the timed mix because they never settle: IndexVFlat on a
// layout with zero rows and the hierarchical ConcatFlat, whose ranks
// receive more messages than they send and keep the pool buffers. It is
// a fixed 64 verified ops on mixed-serving's machine, so the value
// depends on no clock.
func poolGrowth(seed uint64, acct *runner) (value, error) {
	const ops = 64
	w := workloadNamed("mixed-serving")
	inst := &instance{ops: []*op{
		raggedOp("indexv zero rows", indexOp, zeroRowLayout(), []bruck.CollectiveOption{bruck.WithAuto(bruck.SP1)}),
		flatOp("hier concat b=2048", concatOp, nRanks, 2048, fixed(bruck.Hierarchical()), nil),
	}}
	var err error
	if inst.m, err = w.newMachine(); err != nil {
		return value{}, err
	}
	rnd := &rng{s: seed}
	for _, o := range inst.ops {
		if err := o.alloc(); err != nil {
			return value{}, err
		}
		o.fill(rnd)
	}
	r := &runner{inst: inst}
	var base uint64
	for i := -1; i < ops/2; i++ { // one unmeasured round fills the pools
		if i == 0 {
			base = liveHeap()
		}
		for _, o := range inst.ops {
			r.do(o, true)
		}
	}
	grown := liveHeap()
	runtime.KeepAlive(inst)
	acct.merge(r)
	return value{(float64(grown) - float64(base)) / 1024 / ops, ops}, nil
}

// callMetrics are the untraced pass's tail, sample count and, on
// mixed-serving, per-class medians.
func callMetrics(inst *instance, lat []float64, out values) {
	// The highest percentile with at least ten samples beyond it, p99 at
	// most.
	q := min(0.99, 1-10/float64(len(lat)))
	out["bruck.call_p99_us"] = value{quantile(lat, max(q, 0.5)) / 1e3, len(lat)}
	out["bruck.samples"] = value{float64(len(lat)), len(lat)}
	byClass := map[string][]float64{}
	for i, d := range lat {
		o := inst.cycle[i%len(inst.cycle)]
		byClass[o.class] = append(byClass[o.class], d)
	}
	for _, c := range mixedClasses {
		out["bruck.mixed."+c.name+"_p50_us"] = value{median(byClass[c.name]) / 1e3, len(byClass[c.name])}
	}
}

// reportCounts are the exact counts of the calls' Reports, averaged over
// one cycle in slot order so that the sums do not depend on the seed's
// shuffle.
func reportCounts(inst *instance, out values) {
	var c1, c2, c1lb, c2lb, c1b, c2b, msgs, bytes, model float64
	for _, o := range inst.ops {
		m := float64(o.mult)
		c1, c2 = c1+m*float64(o.rep.C1), c2+m*float64(o.rep.C2)
		msgs, bytes = msgs+m*float64(o.rep.Messages), bytes+m*float64(o.rep.TotalBytes)
		if o.rep.C1LowerBound > 0 {
			c1b, c1lb = c1b+m*float64(o.rep.C1), c1lb+m*float64(o.rep.C1LowerBound)
		}
		if o.rep.C2LowerBound > 0 {
			c2b, c2lb = c2b+m*float64(o.rep.C2), c2lb+m*float64(o.rep.C2LowerBound)
		}
		if topo := inst.m.Topology(); topo != nil {
			model += m * o.rep.TimeTopo(topo)
		} else {
			model += m * o.rep.Time(bruck.SP1)
		}
	}
	n := len(inst.cycle)
	cycle := float64(n)
	out["collective.c1_rounds"] = value{c1 / cycle, n}
	out["collective.c2_bytes"] = value{c2 / cycle, n}
	out["collective.c1_over_bound"] = value{c1b / c1lb, n}
	out["collective.c2_over_bound"] = value{c2b / c2lb, n}
	out["collective.model_time_us"] = value{model / cycle * 1e6, n}
	out["mpsim.messages_per_op"] = value{msgs / cycle, n}
	out["mpsim.bytes_per_op"] = value{bytes / cycle, n}
}

// perLayer measures a workload with the layer boundaries timed: an
// untraced pass for the reference latency, the traced pass, and the
// micro-probes. It returns the per-layer metrics and the spans.
func perLayer(w *workload, seed uint64, b budget, corrupt func(*op)) (out values, spans []span, r *runner, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("layer probe: %v", p)
		}
	}()
	inst, _, err := w.newInstance(seed, b.cycleLen)
	if err != nil {
		return nil, nil, nil, err
	}
	r = &runner{inst: inst, corrupt: corrupt}
	r.pass(b.warm, 1, nil)
	lat, _ := r.pass(b.timed/5, b.verifyEvery, make([]float64, 0, 2*b.latCap))

	ly, los, err := prepareLayers(w, inst)
	if err != nil {
		return nil, nil, nil, err
	}
	// A batch is 16 ops and 5 ms of calls at least: after a batch on the
	// harness's engine the machine's goroutines and pools are cold, and
	// in a short batch of a small op those first calls are the median.
	batchOps := max(16, int(5e6/median(lat)))
	spans, durs, err := tracedPass(r, ly, los, b.timed*3/10, batchOps, b.verifyEvery)
	if err != nil {
		return nil, nil, nil, err
	}

	out = values{}
	us := func(boundary string) float64 { return median(durs[boundary]) / 1e3 }
	call, execute, replayed := us("bruck.call"), us("collective.execute"), us("mpsim.replay")
	traced := len(durs["bruck.call"])
	out["collective.execute_us"] = value{execute, traced}
	out["collective.self_us"] = value{execute - replayed, traced}
	out["mpsim.replay_us"] = value{replayed, traced}
	out["mpsim.run_empty_us"] = value{us("mpsim.run_empty"), traced}
	out["bruck.facade_self_us"] = value{call - execute, traced}
	out["trace_overhead_ratio"] = value{call / us("untraced"), traced}
	callMetrics(inst, lat, out)
	reportCounts(inst, out)

	const probes = 24
	each := b.timed / 2 / probes
	sh := shapeOf(inst, los)
	allocs := 0.0
	for _, o := range inst.ops {
		allocs += float64(o.mult) * allocsPer(3, func() {
			_, err := o.execute(los[o].plan)
			must(err)
		})
	}
	out["collective.execute_allocs"] = value{allocs / float64(len(inst.cycle)), 3 * len(inst.ops)}
	first := inst.cycle[0]
	out["buffers.combine_us"] = value{0, 0}
	if w.kernel {
		// The time inside combine kernels, by difference: the same plan
		// compiled with a kernel that does nothing.
		nop := ly.sumFloat32
		nop.Kernel, nop.KernelKey = func(dst, src []byte) {}, ""
		pl, err := collective.CompileReduce(ly.eng, ly.world, collective.AllReduceKind, first.blockLen, nop)
		must(err)
		// The two plans alternate so that the host's drift is in both.
		var sum, none []float64
		for start := now(); len(sum) < 5 || now().Sub(start) < 2*each; {
			for _, side := range []struct {
				pl  *collective.Plan
				dur *[]float64
			}{{los[first].plan, &sum}, {pl, &none}} {
				t0 := now()
				_, err := first.execute(side.pl)
				must(err)
				*side.dur = append(*side.dur, float64(now().Sub(t0)))
			}
		}
		// The lower quartiles: an execute on two CPUs has a long slow tail
		// that moves the medians' difference between 50% and 100% of the op.
		out["buffers.combine_us"] = value{(quantile(sum, 0.25) - quantile(none, 0.25)) / 1e3, len(sum)}
	}
	if out["mpsim.pool_growth_kb_per_op"], err = poolGrowth(seed, r); err != nil {
		return nil, nil, nil, err
	}
	probeMpsim(w, ly, sh, each, out)
	probeBuffers(w, sh, each, out)
	probePlanning(w, inst, ly, sh, each, out)
	out["bruck.failed_ops_ratio"] = value{float64(r.failed) / float64(r.attempted), r.attempted}
	return out, spans, r, nil
}
