package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"bruck"
	"bruck/internal/collective"
	"bruck/internal/mpsim"
)

// rng is a seeded local splitmix64 generator (the repo's convention; the
// global math/rand source is off limits under brucklint's detrand).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) fill(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.next())
		b = b[8:]
	}
	for i := range b {
		b[i] = byte(r.next())
	}
}

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// semantics names the defining result an op is verified against.
type semantics int

const (
	indexOp     semantics = iota // out[i][j] = in[j][i]
	concatOp                     // out[i][j] = in[j]
	allReduceOp                  // out[i][j] = sum over p of in[p][j], float32
)

// op is one request slot of a workload: a public bruck call bound to its
// own input and output buffers, the defining result it is checked
// against, and the same schedule compiled on the harness's engine for
// the layer probes. Slots are built in a seed-independent order; the
// seed decides their payload and the order they run in.
type op struct {
	name  string
	class string // mixed-serving class, "" elsewhere
	sem   semantics
	n     int // group size
	mult  int // occurrences per cycle

	// alloc creates the buffers (timed as part of a cold set-up); fill
	// writes the seeded payload (not timed).
	alloc func() error
	fill  func(r *rng)
	// call is the public call under test.
	call func(m *bruck.Machine) (*bruck.Report, error)
	// inBlock and outBlock view block (i, j) of the input and of the
	// most recent output; zeroOut clears the output.
	inBlock, outBlock func(i, j int) []byte
	zeroOut           func()
	// payload is the number of bytes the op delivers to output buffers.
	payload int64

	// compile builds the op's plan on the harness's engine; execute runs
	// such a plan on the op's buffers (the collective layer boundary).
	compile func(ly *layerEnv) (*collective.Plan, error)
	execute func(pl *collective.Plan) (*collective.Result, error)
	// blockLen is the op's block size (the largest block of a ragged
	// layout), the size the buffers probes run at.
	blockLen int

	rep *bruck.Report // report of the most recent successful call
}

// inShape returns the input's block grid.
func (o *op) inShape() (rows, cols int) {
	if o.sem == concatOp {
		return o.n, 1
	}
	return o.n, o.n
}

// prepare makes a stale or untouched output unable to pass verify: the
// output is zeroed and one byte (one element, for float payloads) of
// every input block changes with step.
func (o *op) prepare(step int) {
	o.zeroOut()
	rows, cols := o.inShape()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			blk := o.inBlock(i, j)
			if len(blk) == 0 {
				continue
			}
			if o.sem == allReduceOp {
				e := 4 * (step % (len(blk) / 4))
				v := math.Float32frombits(binary.LittleEndian.Uint32(blk[e:]))
				binary.LittleEndian.PutUint32(blk[e:], math.Float32bits(float32((int(v)+1)%8)))
			} else {
				blk[step%len(blk)]++
			}
		}
	}
}

// verify checks the most recent output against the defining result.
func (o *op) verify() error {
	var sum []float32
	for j := 0; j < o.n; j++ {
		if o.sem == allReduceOp {
			sum = columnSum(o, j, sum)
		}
		for i := 0; i < o.n; i++ {
			got := o.outBlock(i, j)
			ok := false
			switch o.sem {
			case indexOp:
				ok = string(got) == string(o.inBlock(j, i))
			case concatOp:
				ok = string(got) == string(o.inBlock(j, 0))
			case allReduceOp:
				ok = len(got) == 4*len(sum)
				for e := 0; ok && e < len(sum); e++ {
					ok = binary.LittleEndian.Uint32(got[4*e:]) == math.Float32bits(sum[e])
				}
			}
			if !ok {
				return fmt.Errorf("%s: wrong output block (%d,%d)", o.name, i, j)
			}
		}
	}
	return nil
}

// columnSum adds block j of every rank elementwise. The payload is small
// integers stored as float32, so every combine order gives these bits.
func columnSum(o *op, j int, sum []float32) []float32 {
	sum = sum[:0]
	for p := 0; p < o.n; p++ {
		blk := o.inBlock(p, j)
		for e := 0; 4*e < len(blk); e++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(blk[4*e:]))
			if p == 0 {
				sum = append(sum, v)
			} else {
				sum[e] += v
			}
		}
	}
	return sum
}

func fillSmallFloats(r *rng, b []byte) {
	for e := 0; e+4 <= len(b); e += 4 {
		binary.LittleEndian.PutUint32(b[e:], math.Float32bits(float32(r.intn(8))))
	}
}

// callOptions yields the options of one request. Most slots use fixed
// options, built once so the timed call is the library's work only;
// classes whose requests compute something first (a radix search, a
// fresh group) do it here, inside the timed call.
type callOptions func(m *bruck.Machine) ([]bruck.CollectiveOption, error)

func fixed(opts ...bruck.CollectiveOption) callOptions {
	return func(*bruck.Machine) ([]bruck.CollectiveOption, error) { return opts, nil }
}

// flatOp builds a slot over fixed-size flat buffers.
func flatOp(name string, sem semantics, n, b int, options callOptions,
	compile func(ly *layerEnv) (*collective.Plan, error)) *op {
	var in, out *bruck.Buffers
	o := &op{name: name, sem: sem, n: n, mult: 1, compile: compile, blockLen: b,
		payload: int64(n) * int64(n) * int64(b)}
	o.alloc = func() (err error) {
		inBlocks := n
		if sem == concatOp {
			inBlocks = 1
		}
		if in, err = bruck.NewBuffers(n, inBlocks, b); err != nil {
			return err
		}
		out, err = bruck.NewIndexBuffers(n, b)
		return err
	}
	o.fill = func(r *rng) {
		if sem == allReduceOp {
			fillSmallFloats(r, in.Bytes())
		} else {
			r.fill(in.Bytes())
		}
	}
	o.call = func(m *bruck.Machine) (*bruck.Report, error) {
		opts, err := options(m)
		if err != nil {
			return nil, err
		}
		switch sem {
		case indexOp:
			return m.IndexFlat(in, out, opts...)
		case concatOp:
			return m.ConcatFlat(in, out, opts...)
		default:
			return m.AllReduceFlat(in, out, opts...)
		}
	}
	o.inBlock = func(i, j int) []byte { return in.Block(i, j) }
	o.outBlock = func(i, j int) []byte { return out.Block(i, j) }
	o.zeroOut = func() { out.Zero() }
	o.execute = func(pl *collective.Plan) (*collective.Result, error) { return pl.Execute(in, out) }
	return o
}

// raggedOp builds a slot over ragged buffers shaped by a layout: an
// n x n table for IndexVFlat, an n x 1 vector for ConcatVFlat.
func raggedOp(name string, sem semantics, l *bruck.Layout, opts []bruck.CollectiveOption) *op {
	n := l.Rows()
	outLayout := l.Transpose()
	if sem == concatOp {
		var err error
		if outLayout, err = l.ConcatOut(); err != nil {
			panic(err) // a vector layout always has a concat output shape
		}
	}
	var in, out *bruck.RaggedBuffers
	o := &op{name: name, sem: sem, n: n, mult: 1, blockLen: l.Max(), payload: int64(outLayout.Total())}
	o.alloc = func() (err error) {
		if in, err = bruck.NewRaggedBuffers(l); err != nil {
			return err
		}
		out, err = bruck.NewRaggedBuffers(outLayout)
		return err
	}
	o.fill = func(r *rng) { r.fill(in.Bytes()) }
	o.call = func(m *bruck.Machine) (*bruck.Report, error) {
		if sem == indexOp {
			return m.IndexVFlat(in, out, opts...)
		}
		return m.ConcatVFlat(in, out, opts...)
	}
	o.inBlock = func(i, j int) []byte { return in.Block(i, j) }
	o.outBlock = func(i, j int) []byte { return out.Block(i, j) }
	o.zeroOut = func() { out.Zero() }
	o.compile = func(ly *layerEnv) (*collective.Plan, error) {
		if sem == indexOp {
			return ly.cache.AutoIndexVPlan(ly.eng, ly.world, l, bruck.SP1)
		}
		return ly.cache.AutoConcatVPlan(ly.eng, ly.world, l, bruck.SP1, bruck.LastRoundPreferOptimal)
	}
	o.execute = func(pl *collective.Plan) (*collective.Result, error) { return pl.ExecuteV(in, out) }
	return o
}

// sliceOp builds a slot on the [][][]byte convenience API, which
// returns a fresh output on every call.
func sliceOp(name string, sem semantics, n, b int) *op {
	var in, out [][][]byte // a concat input is in[j][0]
	var fin, fout *bruck.Buffers
	o := &op{name: name, sem: sem, n: n, mult: 1, blockLen: b, payload: int64(n) * int64(n) * int64(b)}
	o.alloc = func() error {
		rows, cols := o.inShape()
		in = make([][][]byte, rows)
		for i := range in {
			in[i] = make([][]byte, cols)
			for j := range in[i] {
				in[i][j] = make([]byte, b)
			}
		}
		return nil
	}
	o.fill = func(r *rng) {
		for i := range in {
			for j := range in[i] {
				r.fill(in[i][j])
			}
		}
	}
	o.call = func(m *bruck.Machine) (rep *bruck.Report, err error) {
		if sem == indexOp {
			out, rep, err = m.Index(in)
			return rep, err
		}
		vec := make([][]byte, n)
		for j := range vec {
			vec[j] = in[j][0]
		}
		out, rep, err = m.Concat(vec)
		return rep, err
	}
	o.inBlock = func(i, j int) []byte { return in[i][j] }
	o.outBlock = func(i, j int) []byte {
		if out == nil {
			return nil
		}
		return out[i][j]
	}
	o.zeroOut = func() { out = nil }
	o.compile = func(ly *layerEnv) (*collective.Plan, error) {
		if sem == indexOp {
			return collective.CompileIndex(ly.eng, ly.world, b, collective.IndexOptions{})
		}
		return collective.CompileConcat(ly.eng, ly.world, b, collective.ConcatOptions{})
	}
	// The collective layer sees flat buffers; the adapters around them
	// are the facade's share.
	o.execute = func(pl *collective.Plan) (*collective.Result, error) {
		if fin == nil {
			var err error
			rows, cols := o.inShape()
			if fin, err = bruck.NewBuffers(rows, cols, b); err != nil {
				return nil, err
			}
			if fout, err = bruck.NewIndexBuffers(n, b); err != nil {
				return nil, err
			}
		}
		return pl.Execute(fin, fout)
	}
	return o
}

// workload is one named set of inputs. ops returns fresh, unallocated
// slots in a seed-independent order.
type workload struct {
	name, why string
	n, k      int
	topology  string // "" for a flat machine
	// procs is the GOMAXPROCS the workload is measured at. The op of a
	// latency-bound workload is tens of microseconds of work spread over
	// 16 goroutines; on two virtual CPUs its median swings between 54 and
	// 122 us from one 2 s window to the next with where the goroutines
	// wake up, and on one P it holds within 2%. The bandwidth-bound
	// workloads need both CPUs: on one they run at well under half speed.
	procs    int
	kernel   bool // the op combines with sum:float32
	ops      func(seed uint64, cycleLen int) []*op
	cycleLen int
}

// topo parses the workload's topology, nil for a flat machine.
func (w *workload) topo() (*bruck.Topology, error) {
	if w.topology == "" {
		return nil, nil
	}
	return bruck.ParseTopology(w.topology)
}

func (w *workload) newMachine() (*bruck.Machine, error) {
	opts := []bruck.MachineOption{bruck.Ports(w.k)}
	topo, err := w.topo()
	if err != nil {
		return nil, err
	}
	if topo != nil {
		opts = append(opts, bruck.WithTopology(topo))
	}
	return bruck.NewMachine(w.n, opts...)
}

const (
	nRanks     = 16
	smallBlock = 128
	largeBlock = 64 << 10
	reduceLen  = 16 << 10
)

var workloads = []*workload{
	{
		name: "index-small", n: nRanks, k: 1, procs: 1, cycleLen: 1,
		why: "IndexFlat n=16 b=128 radix 2, plan reused: the fixed per-run cost of mpsim is the whole op; latency and allocs/op targets land here",
		ops: func(uint64, int) []*op { return []*op{radix2Index(smallBlock)} },
	},
	{
		name: "index-large", n: nRanks, k: 1, procs: 2, cycleLen: 1,
		why: "same call at b=64 KiB, 16 MiB delivered per op: pack/rotate copies and payload copy-in/out dominate, spawn/join under 1%; GB/s targets land here",
		ops: func(uint64, int) []*op { return []*op{radix2Index(largeBlock)} },
	},
	{
		name: "allreduce-large", n: nRanks, k: 1, procs: 2, cycleLen: 1, kernel: true,
		why: "AllReduceFlat 16 chunks x 16 KiB sum:float32: same transport, combine-on-receive instead of copy; a kernel change moves only this workload",
		ops: func(uint64, int) []*op {
			return []*op{flatOp("allreduce b=16384", allReduceOp, nRanks, reduceLen,
				fixed(bruck.WithKernel(bruck.ReduceSum, bruck.Float32)),
				func(ly *layerEnv) (*collective.Plan, error) {
					return collective.CompileReduce(ly.eng, ly.world, collective.AllReduceKind, reduceLen, ly.sumFloat32)
				})}
		},
	},
	{
		name: "mixed-serving", n: nRanks, k: 2, procs: 1, topology: "4x4", cycleLen: 1024,
		why: "one machine, six request classes in a seeded 1024-op cycle: plan lookup, compile on miss, radix search, layout digests, adapters, V and hier bodies, k=2 all do real work",
		ops: mixedOps,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func radix2Index(b int) *op {
	return flatOp(fmt.Sprintf("index b=%d r=2", b), indexOp, nRanks, b,
		fixed(bruck.WithRadix(2)),
		func(ly *layerEnv) (*collective.Plan, error) {
			return collective.CompileIndex(ly.eng, ly.world, b, collective.IndexOptions{Radix: 2})
		})
}

// mixedClasses are the request classes of mixed-serving with their share
// of a cycle, in the order slots are built.
var mixedClasses = []struct {
	name  string
	share float64
}{
	{"concat", 0.25}, {"index-tuned", 0.20}, {"ragged", 0.15},
	{"hier", 0.15}, {"ephemeral-group", 0.15}, {"slice-api", 0.10},
}

// apportion splits total into len(weights) whole parts proportional to
// the weights (largest remainder), so a cycle has the same composition
// under every seed.
func apportion(total int, weights []float64) []int {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	parts := make([]int, len(weights))
	order := make([]int, len(weights))
	frac := make([]float64, len(weights))
	left := total
	for i, w := range weights {
		exact := float64(total) * w / sum
		parts[i] = int(exact)
		frac[i] = exact - float64(parts[i])
		order[i] = i
		left -= parts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for i := 0; i < left; i++ {
		parts[order[i]]++
	}
	return parts
}

// tunedSizes are the 24 log-spaced block sizes 16..8192 of the
// index-tuned class; size i is drawn with Zipf weight 1/(i+1).
func tunedSizes() (sizes []int, weights []float64) {
	for i := 0; i < 24; i++ {
		sizes = append(sizes, int(math.Round(16*math.Pow(512, float64(i)/23))))
		weights = append(weights, 1/float64(i+1))
	}
	return sizes, weights
}

// baseLayouts are the ragged class's eight skewed count tables: four
// n x n index tables and four n-vectors, every count at least 16 bytes.
// They are part of the workload's definition; the seed relabels their
// ranks. (Zero counts are left to zeroRowLayout: at the commit that
// added this benchmark every rank that receives more messages than it
// sends keeps their pool buffers for good, so a timed pass with zero
// rows grows the heap by about 100 KiB per op and never settles.)
func baseLayouts() (tables [][][]int, vectors [][]int) {
	r := &rng{s: 0xb5ad4eceda1ce2a9}
	skewed := func() int { // Zipf-like: mostly small, a few large
		return 1024 / (1 + r.intn(64))
	}
	for t := 0; t < 4; t++ {
		tab := make([][]int, nRanks)
		for i := range tab {
			tab[i] = make([]int, nRanks)
			for j := range tab[i] {
				tab[i][j] = skewed()
			}
		}
		tables = append(tables, tab)
		vec := make([]int, nRanks)
		for i := range vec {
			vec[i] = 4 * skewed()
		}
		vectors = append(vectors, vec)
	}
	return tables, vectors
}

// zeroRowLayout is the first base table with two all-zero rows.
func zeroRowLayout() *bruck.Layout {
	tables, _ := baseLayouts()
	for _, i := range []int{3, 10} {
		for j := range tables[0][i] {
			tables[0][i][j] = 0
		}
	}
	l, err := bruck.NewIndexLayout(tables[0])
	if err != nil {
		panic(err) // the table is well-formed by construction
	}
	return l
}

func mixedOps(seed uint64, cycleLen int) []*op {
	r := &rng{s: seed ^ 0x6d697865642d7376}
	shares := make([]float64, len(mixedClasses))
	for i, c := range mixedClasses {
		shares[i] = c.share
	}
	perClass := apportion(cycleLen, shares)
	var ops []*op
	// add appends one class's slots with the class's requests split
	// evenly (or by weights) between them.
	add := func(class int, weights []float64, slots ...*op) {
		if weights == nil {
			weights = make([]float64, len(slots))
			for i := range weights {
				weights[i] = 1
			}
		}
		for i, m := range apportion(perClass[class], weights) {
			slots[i].class, slots[i].mult = mixedClasses[class].name, m
		}
		ops = append(ops, slots...)
	}
	const k = 2
	auto := []bruck.CollectiveOption{bruck.WithAuto(bruck.SP1)}
	hier := fixed(bruck.Hierarchical())
	hierSum := fixed(bruck.Hierarchical(), bruck.WithKernel(bruck.ReduceSum, bruck.Float32))

	var slots []*op
	for _, b := range []int{64, 1 << 10, 16 << 10} {
		b := b
		slots = append(slots, flatOp(fmt.Sprintf("concat b=%d", b), concatOp, nRanks, b, fixed(),
			func(ly *layerEnv) (*collective.Plan, error) {
				return collective.CompileConcat(ly.eng, ly.world, b, collective.ConcatOptions{})
			}))
	}
	add(0, nil, slots...)

	slots = nil
	sizes, weights := tunedSizes()
	for _, b := range sizes {
		b := b
		// The radix search is part of every request, as a serving caller
		// without its own memo would issue it.
		tuned := func(*bruck.Machine) ([]bruck.CollectiveOption, error) {
			return []bruck.CollectiveOption{bruck.WithRadix(bruck.OptimalRadix(bruck.SP1, nRanks, b, k, false))}, nil
		}
		slots = append(slots, flatOp(fmt.Sprintf("index-tuned b=%d", b), indexOp, nRanks, b, tuned,
			func(ly *layerEnv) (*collective.Plan, error) {
				radix := bruck.OptimalRadix(bruck.SP1, nRanks, b, k, false)
				return collective.CompileIndex(ly.eng, ly.world, b, collective.IndexOptions{Radix: radix})
			}))
	}
	add(1, weights, slots...)

	slots = nil
	tables, vectors := baseLayouts()
	relabel := r.perm(nRanks)
	for t, tab := range tables {
		counts := make([][]int, nRanks)
		for i := range counts {
			counts[i] = make([]int, nRanks)
		}
		vec := make([]int, nRanks)
		for i := range tab {
			vec[relabel[i]] = vectors[t][i]
			for j := range tab[i] {
				counts[relabel[i]][relabel[j]] = tab[i][j]
			}
		}
		il, err := bruck.NewIndexLayout(counts)
		if err != nil {
			panic(err) // the tables are well-formed by construction
		}
		cl, err := bruck.NewConcatLayout(vec)
		if err != nil {
			panic(err)
		}
		slots = append(slots,
			raggedOp(fmt.Sprintf("indexv layout=%d", t), indexOp, il, auto),
			raggedOp(fmt.Sprintf("concatv layout=%d", t), concatOp, cl, auto))
	}
	add(2, nil, slots...)

	slots = nil
	for _, b := range []int{128, 2048} {
		b := b
		slots = append(slots,
			flatOp(fmt.Sprintf("hier index b=%d", b), indexOp, nRanks, b, hier,
				func(ly *layerEnv) (*collective.Plan, error) {
					return collective.CompileHierarchicalIndex(ly.eng, ly.world, b, ly.topo, collective.HierOptions{})
				}),
			flatOp(fmt.Sprintf("hier allreduce b=%d", b), allReduceOp, nRanks, b, hierSum,
				func(ly *layerEnv) (*collective.Plan, error) {
					return collective.CompileHierarchicalReduce(ly.eng, ly.world, collective.AllReduceKind, b, ly.topo, ly.sumFloat32)
				}))
	}
	add(3, nil, slots...)

	add(4, nil, ephemeralOp(r))

	add(5, nil, sliceOp("slice index b=256", indexOp, nRanks, 256), sliceOp("slice concat b=256", concatOp, nRanks, 256))
	return ops
}

// ephemeralOp is the ephemeral-group class: every request builds a
// fresh 8-rank group from a seeded list of rank subsets and runs
// IndexFlat on it, so every request misses the pointer-keyed plan cache,
// compiles, and (once the cache holds 256 plans) evicts.
func ephemeralOp(r *rng) *op {
	const members, b = 8, 256
	subsets := make([][]int, 64)
	for i := range subsets {
		subsets[i] = r.perm(nRanks)[:members]
	}
	next := 0
	fresh := func(m *bruck.Machine) ([]bruck.CollectiveOption, error) {
		g, err := m.NewGroup(subsets[next%len(subsets)])
		next++
		return []bruck.CollectiveOption{bruck.OnGroup(g)}, err
	}
	return flatOp("ephemeral-group index b=256", indexOp, members, b, fresh,
		func(ly *layerEnv) (*collective.Plan, error) {
			g, err := mpsim.NewGroup(subsets[0], nRanks)
			if err != nil {
				return nil, err
			}
			return collective.CompileIndex(ly.eng, g, b, collective.IndexOptions{})
		})
}
