package bruck

import "testing"

// TestNilGroupRejectedEverywhere pins the public boundary for
// OnGroup(nil): every operation — whichever compiler, dispatcher or
// adapter it routes through — must return the one error the compile
// entry produces, never panic. (IndexFlat, ConcatFlat, Index and
// CompileIndex used to dereference the nil group before validating it.)
func TestNilGroupRejectedEverywhere(t *testing.T) {
	const n, b, want = 4, 4, "collective: empty group"
	topo, err := ParseTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewMachine(n)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := NewMachine(n, WithTopology(topo))
	if err != nil {
		t.Fatal(err)
	}
	matrix := indexInput(n, b)
	vector := matrix[0]
	idxIn, _ := NewIndexBuffers(n, b)
	idxOut, _ := NewIndexBuffers(n, b)
	catIn, _ := NewConcatBuffers(n, b)
	catOut, _ := NewConcatBuffers(n, b)
	counts := [][]int{{1, 2, 3, 4}, {4, 3, 2, 1}, {0, 1, 0, 1}, {2, 2, 2, 2}}
	idxLay, _ := NewIndexLayout(counts)
	catLay, _ := NewConcatLayout(counts[0])
	ragIn, _ := NewRaggedBuffers(idxLay)
	ragOut, _ := NewRaggedBuffers(idxLay.Transpose())
	catRagIn, _ := NewRaggedBuffers(catLay)
	catRagLay, _ := catLay.ConcatOut()
	catRagOut, _ := NewRaggedBuffers(catRagLay)
	sum := WithKernel(ReduceSum, Int32)
	g := OnGroup(nil)

	// Each case reports only its error; variants cover the plain, mixed
	// radix, auto-dispatched and hierarchical routes of every family.
	type call func(m *Machine, opts ...CollectiveOption) error
	index := call(func(m *Machine, o ...CollectiveOption) error { _, _, err := m.Index(matrix, o...); return err })
	indexFlat := call(func(m *Machine, o ...CollectiveOption) error { _, err := m.IndexFlat(idxIn, idxOut, o...); return err })
	concat := call(func(m *Machine, o ...CollectiveOption) error { _, _, err := m.Concat(vector, o...); return err })
	concatFlat := call(func(m *Machine, o ...CollectiveOption) error { _, err := m.ConcatFlat(catIn, idxOut, o...); return err })
	compileIndex := call(func(m *Machine, o ...CollectiveOption) error { _, err := m.CompileIndex(b, o...); return err })
	compileConcat := call(func(m *Machine, o ...CollectiveOption) error { _, err := m.CompileConcat(b, o...); return err })
	allReduceFlat := call(func(m *Machine, o ...CollectiveOption) error {
		_, err := m.AllReduceFlat(idxIn, idxOut, o...)
		return err
	})
	cases := []struct {
		name string
		m    *Machine
		do   call
		opts []CollectiveOption
	}{
		{"Index", flat, index, nil},
		{"Index/radices", flat, index, []CollectiveOption{WithRadices([]int{2, 2})}},
		{"Index/hierarchical", tiered, index, []CollectiveOption{Hierarchical()}},
		{"Index/auto-topology", tiered, index, []CollectiveOption{WithAuto(SP1)}},
		{"IndexFlat", flat, indexFlat, nil},
		{"IndexFlat/radices", flat, indexFlat, []CollectiveOption{WithRadices([]int{2, 2})}},
		{"IndexFlat/hierarchical", tiered, indexFlat, []CollectiveOption{Hierarchical()}},
		{"IndexAsync", flat, func(m *Machine, o ...CollectiveOption) error { _, err := m.IndexAsync(idxIn, idxOut, o...); return err }, nil},
		{"Concat", flat, concat, nil},
		{"Concat/hierarchical", tiered, concat, []CollectiveOption{Hierarchical()}},
		{"ConcatFlat", flat, concatFlat, nil},
		{"ConcatFlat/auto-topology", tiered, concatFlat, []CollectiveOption{WithAuto(SP1)}},
		{"ConcatAsync", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.ConcatAsync(catIn, idxOut, o...)
			return err
		}, nil},
		{"CompileIndex", flat, compileIndex, nil},
		{"CompileIndex/hierarchical", tiered, compileIndex, []CollectiveOption{Hierarchical()}},
		{"CompileConcat", flat, compileConcat, nil},
		{"IndexV", flat, func(m *Machine, o ...CollectiveOption) error { _, _, err := m.IndexV(matrix, o...); return err }, nil},
		{"IndexVFlat", flat, func(m *Machine, o ...CollectiveOption) error { _, err := m.IndexVFlat(ragIn, ragOut, o...); return err }, nil},
		{"IndexVFlat/auto", flat, func(m *Machine, o ...CollectiveOption) error { _, err := m.IndexVFlat(ragIn, ragOut, o...); return err }, []CollectiveOption{WithAuto(SP1)}},
		{"ConcatV", flat, func(m *Machine, o ...CollectiveOption) error { _, _, err := m.ConcatV(vector, o...); return err }, nil},
		{"ConcatVFlat", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.ConcatVFlat(catRagIn, catRagOut, o...)
			return err
		}, nil},
		{"ConcatVFlat/auto", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.ConcatVFlat(catRagIn, catRagOut, o...)
			return err
		}, []CollectiveOption{WithAuto(SP1)}},
		{"CompileIndexV", flat, func(m *Machine, o ...CollectiveOption) error { _, err := m.CompileIndexV(idxLay, o...); return err }, nil},
		{"CompileConcatV", flat, func(m *Machine, o ...CollectiveOption) error { _, err := m.CompileConcatV(catLay, o...); return err }, nil},
		{"ReduceScatter", flat, func(m *Machine, o ...CollectiveOption) error { _, _, err := m.ReduceScatter(matrix, o...); return err }, []CollectiveOption{sum}},
		{"ReduceScatterFlat", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.ReduceScatterFlat(idxIn, catOut, o...)
			return err
		}, []CollectiveOption{sum}},
		{"AllReduce", flat, func(m *Machine, o ...CollectiveOption) error { _, _, err := m.AllReduce(matrix, o...); return err }, []CollectiveOption{sum}},
		{"AllReduceFlat", flat, allReduceFlat, []CollectiveOption{sum}},
		{"AllReduceFlat/auto", flat, allReduceFlat, []CollectiveOption{sum, WithAuto(SP1)}},
		{"AllReduceFlat/hierarchical", tiered, allReduceFlat, []CollectiveOption{sum, Hierarchical()}},
		{"AllReduceFlat/auto-topology", tiered, allReduceFlat, []CollectiveOption{sum, WithAuto(SP1)}},
		{"AllReduceAsync", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.AllReduceAsync(idxIn, idxOut, o...)
			return err
		}, []CollectiveOption{sum}},
		{"CompileReduce", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.CompileReduce(AllReduceKind, b, o...)
			return err
		}, []CollectiveOption{sum}},
		{"Broadcast", flat, func(m *Machine, o ...CollectiveOption) error {
			_, _, err := m.Broadcast(0, vector[0], o...)
			return err
		}, nil},
		{"Gather", flat, func(m *Machine, o ...CollectiveOption) error { _, _, err := m.Gather(0, vector, o...); return err }, nil},
		{"Scatter", flat, func(m *Machine, o ...CollectiveOption) error { _, _, err := m.Scatter(0, vector, o...); return err }, nil},
		{"BroadcastInto", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.BroadcastInto(0, vector[0], catOut, o...)
			return err
		}, nil},
		{"GatherInto", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.GatherInto(0, catIn, make([]byte, n*b), o...)
			return err
		}, nil},
		{"ScatterInto", flat, func(m *Machine, o ...CollectiveOption) error {
			_, err := m.ScatterInto(0, make([]byte, n*b), catOut, o...)
			return err
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do(tc.m, append(tc.opts, g)...)
			if err == nil || err.Error() != want {
				t.Fatalf("error = %v, want %q", err, want)
			}
		})
	}
}

// TestFacadeErrorTexts pins the text of every error the facade itself
// returns (the "bruck: ..." ones; what package collective rejects in a
// Spec is pinned by its TestSpecRejections), of the five rejections a
// plan list can draw from RunPlans and of the five a reduction call can
// draw by the way it names its kernel: call, exact text.
func TestFacadeErrorTexts(t *testing.T) {
	const n, b = 4, 4
	topo, err := ParseTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	fresh := MustNewMachine(n, RecordEvents())
	tiered := MustNewMachine(n, WithTopology(topo))
	in, _ := NewIndexBuffers(n, b)
	out, _ := NewIndexBuffers(n, b)
	// ran has completed one operation without recording events; split
	// has last run two plans at once, which leaves no single schedule.
	ran := MustNewMachine(n, WithTopology(topo))
	if _, err := ran.IndexFlat(in, out); err != nil {
		t.Fatal(err)
	}
	split := MustNewMachine(n, WithTopology(topo), RecordEvents())
	var halves []*Plan
	for _, ids := range [][]int{{0, 1}, {2, 3}} {
		g, err := split.NewGroup(ids)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := split.CompileIndex(b, OnGroup(g))
		if err != nil {
			t.Fatal(err)
		}
		pin, _ := NewIndexBuffers(2, b)
		pout, _ := NewIndexBuffers(2, b)
		if err := pl.Bind(pin, pout); err != nil {
			t.Fatal(err)
		}
		halves = append(halves, pl)
	}
	if _, err := split.RunPlans(halves); err != nil {
		t.Fatal(err)
	}
	busy := MustNewMachine(n)
	busy.inflight.Store(true)
	// Two plans nobody bound, on the machine nothing has run on.
	unbound, err := fresh.CompileIndex(b)
	if err != nil {
		t.Fatal(err)
	}
	layout, _ := NewConcatLayout([]int{1, 2, 3, 4})
	unboundV, err := fresh.CompileConcatV(layout)
	if err != nil {
		t.Fatal(err)
	}
	runPlans := func(m *Machine, plans ...*Plan) func() error {
		return func() error { _, err := m.RunPlans(plans); return err }
	}

	// A reduction names its kernel with WithKernel or WithCombine; an
	// operation or element type outside the table is an error, not an
	// index panic.
	six, _ := NewIndexBuffers(n, 6)
	allReduce := func(in *Buffers, opts ...CollectiveOption) func() error {
		return func() error {
			out, _ := NewIndexBuffers(n, in.BlockLen())
			_, err := fresh.AllReduceFlat(in, out, opts...)
			return err
		}
	}
	critical := func(m *Machine) func() error {
		return func() error { _, err := m.CriticalPathTime(SP1); return err }
	}
	criticalTopo := func(m *Machine) func() error {
		return func() error { _, err := m.CriticalPathTopoTime(); return err }
	}
	for _, c := range []struct {
		name string
		call func() error
		want string
	}{
		{"NewMachine/topology size", func() error { _, err := NewMachine(6, WithTopology(topo)); return err },
			"bruck: topology covers 4 processors, machine has 6"},
		{"CriticalPathTime/no operation", critical(fresh), "bruck: CriticalPathTime before any operation"},
		{"CriticalPathTime/no events", critical(ran), "bruck: CriticalPathTime requires a machine created with RecordEvents"},
		{"CriticalPathTime/after RunPlans", critical(split),
			"bruck: CriticalPathTime is unavailable after RunPlans (per-plan schedules; use the returned Reports)"},
		{"CriticalPathTopoTime/flat machine", criticalTopo(fresh), "bruck: CriticalPathTopoTime requires a machine created with WithTopology"},
		{"CriticalPathTopoTime/no operation", criticalTopo(tiered), "bruck: CriticalPathTopoTime before any operation"},
		{"CriticalPathTopoTime/no events", criticalTopo(ran), "bruck: CriticalPathTopoTime requires a machine created with RecordEvents"},
		{"CriticalPathTopoTime/after RunPlans", criticalTopo(split),
			"bruck: CriticalPathTopoTime is unavailable after RunPlans (per-plan schedules; use the returned Reports)"},
		{"IndexFlat/nil", func() error { _, err := fresh.IndexFlat(nil, out); return err }, "bruck: nil flat buffer"},
		{"IndexAsync/nil", func() error { _, err := fresh.IndexAsync(in, nil); return err }, "bruck: nil flat buffer"},
		{"BroadcastInto/nil", func() error { _, err := fresh.BroadcastInto(0, make([]byte, b), nil); return err }, "bruck: nil flat buffer"},
		{"IndexVFlat/nil", func() error { _, err := fresh.IndexVFlat(nil, nil); return err }, "bruck: nil ragged buffer"},
		{"IndexAsync/in flight", func() error { _, err := busy.IndexAsync(in, out); return err },
			"bruck: an asynchronous operation is already in flight (Wait on its Handle first)"},
		{"IndexFlat/in flight", func() error { _, err := busy.IndexFlat(in, out); return err },
			"bruck: an asynchronous operation is already in flight (Wait on its Handle first)"},
		{"RunPlans/in flight", runPlans(busy), "bruck: an asynchronous operation is already in flight (Wait on its Handle first)"},
		{"AllReduceFlat/no kernel", allReduce(in), "collective: reduction requires a combine kernel (pass WithKernel or WithCombine)"},
		{"AllReduceFlat/unknown op", allReduce(in, WithKernel(ReduceOp(9), Float32)), "buffers: no kernel for ReduceOp(9) over float32"},
		{"AllReduceFlat/unknown type", allReduce(in, WithKernel(ReduceSum, DataType(9))), "buffers: no kernel for sum over DataType(9)"},
		{"AllReduceFlat/negative op", allReduce(in, WithKernel(ReduceOp(-1), Float32)), "buffers: no kernel for ReduceOp(-1) over float32"},
		{"AllReduceFlat/split element", allReduce(six, WithKernel(ReduceSum, Float32)),
			"collective: block size 6 is not a multiple of the kernel's 4-byte elements"},
		{"RunPlans/empty", runPlans(fresh), "collective: no plans to execute"},
		{"RunPlans/nil plan", runPlans(split, halves[0], nil), "collective: plan 1 is nil"},
		{"RunPlans/another machine's plan", runPlans(fresh, halves...), "collective: plan 0 was compiled for a different engine"},
		{"RunPlans/unbound", runPlans(fresh, unbound), "collective: plan 0 has no bound buffers (call Bind)"},
		{"RunPlans/unbound layout plan", runPlans(fresh, unboundV), "collective: layout plan 0 has no bound ragged buffers (call BindV)"},
		{"RunPlans/overlapping groups", runPlans(split, halves[0], halves[1], halves[0]),
			"collective: plans 0 and 2 share processor 0; groups must be disjoint"},
	} {
		if err := c.call(); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}
