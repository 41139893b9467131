package bruck

import "testing"

// TestNilGroupRejectedEverywhere pins the public boundary for
// OnGroup(nil): every call — whichever verb, operation, buffer kind,
// compiler or dispatcher it routes through — must return the one error
// the compile entry produces, never panic. (Index, IndexFlat and
// CompileIndex used to dereference the nil group before validating it.)
// A row keeps the name of the call shape it had before the verbs.
func TestNilGroupRejectedEverywhere(t *testing.T) {
	const n, b, want = 4, 4, "collective: empty group"
	topo, err := ParseTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	flat, tiered := MustNewMachine(n), MustNewMachine(n, WithTopology(topo))
	matrix := input(t, n, n, b, 0).ToMatrix()
	idxIn, idxOut := mustBuffers(t, n, n, b), mustBuffers(t, n, n, b)
	catIn, catOut := mustBuffers(t, n, 1, b), mustBuffers(t, n, 1, b)
	data, atRoot := mustBuffers(t, 1, 1, b), mustBuffers(t, 1, n, b)
	counts := [][]int{{1, 2, 3, 4}, {4, 3, 2, 1}, {0, 1, 0, 1}, {2, 2, 2, 2}}
	idxLay, _ := NewIndexLayout(counts)
	catLay, _ := NewConcatLayout(counts[0])
	ragIn, _ := NewRaggedBuffers(idxLay)
	catRagIn, _ := NewRaggedBuffers(catLay)
	ragOut, catRagOut := raggedOut(t, Index, ragIn), raggedOut(t, Concat, catRagIn)
	sum := WithKernel(ReduceSum, Int32)

	// Each case reports only its error; variants cover the plain, mixed
	// radix, auto-dispatched and hierarchical routes of every family.
	type call func(m *Machine, opts ...CollectiveOption) error
	run := func(op Op, in, out any) call {
		return func(m *Machine, o ...CollectiveOption) error { _, err := m.Run(op, in, out, o...); return err }
	}
	start := func(op Op, in, out any) call {
		return func(m *Machine, o ...CollectiveOption) error {
			h, err := m.Start(op, in, out, o...)
			if err == nil {
				_, err = h.Wait()
			}
			return err
		}
	}
	compile := func(op Op, in any) call {
		return func(m *Machine, o ...CollectiveOption) error { _, err := m.Compile(op, in, o...); return err }
	}
	index := call(func(m *Machine, o ...CollectiveOption) error { _, _, err := m.Index(matrix, o...); return err })
	concat := call(func(m *Machine, o ...CollectiveOption) error { _, _, err := m.Concat(matrix[0], o...); return err })
	radices := WithRadices([]int{2, 2})
	cases := []struct {
		name string
		m    *Machine
		do   call
		opts []CollectiveOption
	}{
		{"Index", flat, index, nil},
		{"Index/radices", flat, index, []CollectiveOption{radices}},
		{"Index/hierarchical", tiered, index, []CollectiveOption{Hierarchical()}},
		{"Index/auto-topology", tiered, index, []CollectiveOption{WithAuto(SP1)}},
		{"IndexFlat", flat, run(Index, idxIn, idxOut), nil},
		{"IndexFlat/radices", flat, run(Index, idxIn, idxOut), []CollectiveOption{radices}},
		{"IndexFlat/hierarchical", tiered, run(Index, idxIn, idxOut), []CollectiveOption{Hierarchical()}},
		{"IndexAsync", flat, start(Index, idxIn, idxOut), nil},
		{"Concat", flat, concat, nil},
		{"Concat/hierarchical", tiered, concat, []CollectiveOption{Hierarchical()}},
		{"ConcatFlat", flat, run(Concat, catIn, idxOut), nil},
		{"ConcatFlat/auto-topology", tiered, run(Concat, catIn, idxOut), []CollectiveOption{WithAuto(SP1)}},
		{"ConcatAsync", flat, start(Concat, catIn, idxOut), nil},
		{"CompileIndex", flat, compile(Index, idxIn), nil},
		{"CompileIndex/hierarchical", tiered, compile(Index, idxIn), []CollectiveOption{Hierarchical()}},
		{"CompileConcat", flat, compile(Concat, catIn), nil},
		{"IndexV", flat, start(Index, ragIn, ragOut), nil},
		{"IndexVFlat", flat, run(Index, ragIn, ragOut), nil},
		{"IndexVFlat/auto", flat, run(Index, ragIn, ragOut), []CollectiveOption{WithAuto(SP1)}},
		{"ConcatV", flat, start(Concat, catRagIn, catRagOut), nil},
		{"ConcatVFlat", flat, run(Concat, catRagIn, catRagOut), nil},
		{"ConcatVFlat/auto", flat, run(Concat, catRagIn, catRagOut), []CollectiveOption{WithAuto(SP1)}},
		{"CompileIndexV", flat, compile(Index, ragIn), nil},
		{"CompileConcatV", flat, compile(Concat, catRagIn), nil},
		{"ReduceScatter", flat, start(ReduceScatter, idxIn, catOut), []CollectiveOption{sum}},
		{"ReduceScatterFlat", flat, run(ReduceScatter, idxIn, catOut), []CollectiveOption{sum}},
		{"AllReduce", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.AllReduceFlat(idxIn, idxOut, o...)
			return err
		}, []CollectiveOption{sum}},
		{"AllReduceFlat", flat, run(AllReduce, idxIn, idxOut), []CollectiveOption{sum}},
		{"AllReduceFlat/auto", flat, run(AllReduce, idxIn, idxOut), []CollectiveOption{sum, WithAuto(SP1)}},
		{"AllReduceFlat/hierarchical", tiered, run(AllReduce, idxIn, idxOut), []CollectiveOption{sum, Hierarchical()}},
		{"AllReduceFlat/auto-topology", tiered, run(AllReduce, idxIn, idxOut), []CollectiveOption{sum, WithAuto(SP1)}},
		{"AllReduceAsync", flat, start(AllReduce, idxIn, idxOut), []CollectiveOption{sum}},
		{"CompileReduce", flat, compile(AllReduce, idxIn), []CollectiveOption{sum}},
		{"Broadcast", flat, start(Broadcast, data, catOut), nil},
		{"Gather", flat, start(Gather, catIn, atRoot), nil},
		{"Scatter", flat, start(Scatter, atRoot, catOut), nil},
		{"BroadcastInto", flat, run(Broadcast, data, catOut), nil},
		{"GatherInto", flat, run(Gather, catIn, atRoot), nil},
		{"ScatterInto", flat, run(Scatter, atRoot, catOut), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do(tc.m, append(tc.opts, OnGroup(nil))...)
			if err == nil || err.Error() != want {
				t.Fatalf("error = %v, want %q", err, want)
			}
		})
	}
}

// TestFacadeErrorTexts pins the text of every error the facade itself
// returns (the "bruck: ..." ones; what package collective rejects in a
// Spec is pinned by its TestSpecRejections), of the five rejections a
// plan list can draw from RunPlans, of the five a reduction call can
// draw by the way it names its kernel and of the two topologies
// Plan.CriticalPathTopo cannot price a plan under: call, exact text.
func TestFacadeErrorTexts(t *testing.T) {
	const n, b = 4, 4
	const inFlight = "bruck: an asynchronous operation is already in flight (Wait on its Handle first)"
	topo, err := ParseTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	fresh := MustNewMachine(n)
	in, out := mustBuffers(t, n, n, b), mustBuffers(t, n, n, b)
	// split has run two plans at once.
	split := MustNewMachine(n, WithTopology(topo))
	var halves []PlanRun
	for _, ids := range [][]int{{0, 1}, {2, 3}} {
		g, err := split.NewGroup(ids)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := split.Compile(Index, in, OnGroup(g))
		if err != nil {
			t.Fatal(err)
		}
		halves = append(halves, PlanRun{pl, mustBuffers(t, 2, 2, b), mustBuffers(t, 2, 2, b)})
	}
	if _, err := split.RunPlans(halves); err != nil {
		t.Fatal(err)
	}
	busy := MustNewMachine(n)
	busy.inflight.Store(true)
	// A plan of the machine nothing has run on.
	plan, err := fresh.Compile(Index, in)
	if err != nil {
		t.Fatal(err)
	}
	layout, _ := NewConcatLayout([]int{1, 2, 3, 4})
	ragged, _ := NewRaggedBuffers(layout)
	runPlans := func(m *Machine, runs ...PlanRun) func() error {
		return func() error { _, err := m.RunPlans(runs); return err }
	}
	run := func(m *Machine, op Op, in, out any, opts ...CollectiveOption) func() error {
		return func() error { _, err := m.Run(op, in, out, opts...); return err }
	}

	// A reduction names its kernel with WithKernel or WithCombine; an
	// operation or element type outside the table is an error, not an
	// index panic.
	six := mustBuffers(t, n, n, 6)
	allReduce := func(in *Buffers, opts ...CollectiveOption) func() error {
		return run(fresh, AllReduce, in, mustBuffers(t, n, n, in.BlockLen()), opts...)
	}
	critical := func(topo *Topology) func() error {
		return func() error { _, err := plan.CriticalPathTopo(topo); return err }
	}
	wide, err := ParseTopology("2x3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		call func() error
		want string
	}{
		{"NewMachine/topology size", func() error { _, err := NewMachine(6, WithTopology(topo)); return err },
			"bruck: topology covers 4 processors, machine has 6"},
		{"Plan.CriticalPathTopo/nil topology", critical(nil), "costmodel: nil topology"},
		{"Plan.CriticalPathTopo/another machine's topology", critical(wide),
			"collective: topology covers 6 processors, the plan's machine has 4"},
		{"IndexFlat/nil", run(fresh, Index, (*Buffers)(nil), out), "bruck: nil flat buffer"},
		{"IndexAsync/nil", func() error { _, err := fresh.Start(Index, in, (*Buffers)(nil)); return err }, "bruck: nil flat buffer"},
		{"BroadcastInto/nil", run(fresh, Broadcast, mustBuffers(t, 1, 1, b), (*Buffers)(nil)), "bruck: nil flat buffer"},
		{"IndexVFlat/nil", run(fresh, Index, (*RaggedBuffers)(nil), (*RaggedBuffers)(nil)), "bruck: nil ragged buffer"},
		{"Run/untyped nil", run(fresh, Index, nil, out), "bruck: nil flat buffer"},
		{"Run/one of each", run(fresh, Concat, in, raggedOut(t, Concat, ragged)), "bruck: concat takes two Buffers or two RaggedBuffers, not one of each"},
		{"Run/foreign type", run(fresh, Index, make([]byte, b), out), "bruck: []uint8 is neither a *Buffers nor a *RaggedBuffers"},
		{"Compile/ragged reduction", func() error { _, err := fresh.Compile(AllReduce, ragged); return err },
			"bruck: allreduce takes Buffers (only Index and Concat have a ragged form)"},
		{"WithRadices/empty", run(fresh, Index, in, out, WithRadices([]int{})), "collective: empty radix vector for n = 4"},
		{"IndexAsync/in flight", func() error { _, err := busy.Start(Index, in, out); return err }, inFlight},
		{"IndexFlat/in flight", run(busy, Index, in, out), inFlight},
		{"RunPlans/in flight", runPlans(busy), inFlight},
		{"AllReduceFlat/no kernel", allReduce(in), "collective: reduction requires a combine kernel (pass WithKernel or WithCombine)"},
		{"AllReduceFlat/unknown op", allReduce(in, WithKernel(ReduceOp(9), Float32)), "buffers: no kernel for ReduceOp(9) over float32"},
		{"AllReduceFlat/unknown type", allReduce(in, WithKernel(ReduceSum, DataType(9))), "buffers: no kernel for sum over DataType(9)"},
		{"AllReduceFlat/negative op", allReduce(in, WithKernel(ReduceOp(-1), Float32)), "buffers: no kernel for ReduceOp(-1) over float32"},
		{"AllReduceFlat/split element", allReduce(six, WithKernel(ReduceSum, Float32)),
			"collective: block size 6 is not a multiple of the kernel's 4-byte elements"},
		{"RunPlans/empty", runPlans(fresh), "collective: no plans to execute"},
		{"RunPlans/nil plan", runPlans(split, halves[0], PlanRun{nil, in, out}), "collective: plan 1 is nil"},
		{"RunPlans/another machine's plan", runPlans(fresh, halves...), "collective: plan 0 was compiled for a different engine"},
		{"RunPlans/mis-shaped buffers", runPlans(fresh, PlanRun{plan, in, mustBuffers(t, n, 1, b)}),
			"collective: index plan output is 4x1 blocks of 4 bytes, want 4x4 of 4 (plan 0)"},
		{"RunPlans/overlapping groups", runPlans(split, halves[0], halves[1], halves[0]),
			"collective: plans 0 and 2 share processor 0; groups must be disjoint"},
	} {
		if err := c.call(); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}
