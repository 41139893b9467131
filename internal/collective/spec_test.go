package collective

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// shouldBeError reports how err fails to be the error with exactly the
// given text; "" means it is.
func shouldBeError(err error, want string) string {
	switch {
	case err == nil:
		return fmt.Sprintf("expected error %q, got nil", want)
	case err.Error() != want:
		return fmt.Sprintf("error message did not match\nexpected: %s\n  actual: %s", want, err)
	}
	return ""
}

// TestSpecRejections pins the exact text of every rejection a Spec can
// draw, through Compile and through a cache alike — and of every
// rejection Run draws from memory (Plan.Memory) of another shape than
// the plan the spec compiles to.
func TestSpecRejections(t *testing.T) {
	const n = 6 // not a power of two
	e := mpsim.MustNew(n)
	world := mpsim.WorldGroup(n)
	outside, err := mpsim.NewGroup([]int{0, 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	square, _ := blocks.Uniform(4, 4, 2)
	column, _ := blocks.Uniform(4, 1, 2)
	topo, _ := costmodel.ParseTopology("3x2")
	sum, _ := buffers.Kernel(buffers.Sum, buffers.Int32)
	int32s := ReduceOptions{Kernel: sum, ElemSize: 4, KernelKey: "sum/int32"}
	negated := costmodel.Profile{Name: "negated", Beta: -1, Tau: -2}
	flat := func(procs, blocks, blockLen int) *buffers.Buffers {
		b, err := buffers.New(procs, blocks, blockLen)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ragged := func(l *blocks.Layout) *buffers.Ragged {
		r, err := buffers.NewRagged(l)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rooted := func(op Op) Spec { return Spec{Op: op, BlockLen: 4, Root: 2} }
	raw := func(n int) []byte { return make([]byte, n) }
	sq6, _ := blocks.Uniform(n, n, 2)
	wide6, _ := blocks.Uniform(n, n, 3)
	layoutPlan := Spec{Op: OpIndexV, Layout: sq6}
	flatSide, raggedSide := flat(n, n, 4), ragged(sq6)
	cases := []struct {
		name string
		g    *mpsim.Group
		spec Spec
		want string
	}{
		{"nil group", nil, Spec{}, "collective: empty group"},
		{"broadcast root out of range", world, Spec{Op: OpBroadcast, Root: 6}, "collective: broadcast root 6 out of range [0,6)"},
		{"gather root negative", world, Spec{Op: OpGather, Root: -1}, "collective: gather root -1 out of range [0,6)"},
		{"scatter root out of range", world, Spec{Op: OpScatter, Root: 9}, "collective: scatter root 9 out of range [0,6)"},
		{"empty group", &mpsim.Group{}, Spec{}, "collective: empty group"},
		{"member outside the engine", outside, Spec{}, "collective: group member 7 outside engine with 6 processors"},
		{"unknown operation", world, Spec{Op: 9}, "collective: unknown operation Op(9)"},
		{"negative block size", world, Spec{BlockLen: -1}, "collective: negative block size -1"},
		{"nil layout", world, Spec{Op: OpIndexV}, "collective: nil layout"},
		{"index layout shape", world, Spec{Op: OpIndexV, Layout: square}, "collective: index layout is 4x4, group needs 6x6"},
		{"concat layout shape", world, Spec{Op: OpConcatV, Layout: column}, "collective: concat layout is 4x1, group needs 6x1"},
		{"radix out of range", world, Spec{Index: IndexOptions{Radix: 7}}, "collective: index radix 7 out of range [2, 6]"},
		{"radix below two", world, Spec{Index: IndexOptions{Radix: 1}}, "collective: index radix 1 out of range [2, 6]"},
		{"empty radices", world, Spec{Radices: []int{}}, "collective: empty radix vector for n = 6"},
		{"radices too small", world, Spec{Radices: []int{2, 2}}, "collective: radix product 4 < n = 6 does not cover all block ids"},
		{"radix in radices below two", world, Spec{Radices: []int{1, 6}}, "collective: radix[0] = 1, want >= 2"},
		{"dead radix", world, Spec{Radices: []int{6, 2}}, "collective: radix[1] is dead weight (product of earlier radices already >= n)"},
		{"unknown index algorithm", world, Spec{Index: IndexOptions{Algorithm: 3}}, "collective: unknown index algorithm IndexAlgorithm(3)"},
		{"xor on a non-power-of-two group", world, Spec{Index: IndexOptions{Algorithm: IndexPairwiseXOR}},
			"collective: pairwise-xor index requires a power-of-two group size, got 6"},
		{"unknown concat algorithm", world, Spec{Op: OpConcat, Concat: ConcatOptions{Algorithm: 4}}, "collective: unknown concat algorithm ConcatAlgorithm(4)"},
		{"recursive doubling on a non-power-of-two group", world, Spec{Op: OpConcat, Concat: ConcatOptions{Algorithm: ConcatRecursiveDoubling}},
			"collective: recursive doubling requires a power-of-two group size, got 6"},
		{"folklore with a layout", world, Spec{Op: OpConcatV, Layout: mustVector(t, n), Concat: ConcatOptions{Algorithm: ConcatFolklore}},
			"collective: folklore has no V variant (ConcatV supports circulant and ring)"},
		{"recursive doubling with a layout", world, Spec{Op: OpConcatV, Layout: mustVector(t, n), Concat: ConcatOptions{Algorithm: ConcatRecursiveDoubling}},
			"collective: recursive-doubling has no V variant (ConcatV supports circulant and ring)"},
		{"hierarchical without a topology", world, Spec{Hierarchical: true},
			"collective: hierarchical schedule requires a topology (a machine created with WithTopology)"},
		{"hierarchical reduce-scatter", world, Spec{Op: OpReduceScatter, BlockLen: 4, Reduce: int32s, Hierarchical: true, Topology: topo},
			"collective: hierarchical reduction supports AllReduceKind only, got reduce-scatter"},
		{"topology of another size", world, Spec{Hierarchical: true, Topology: mustTopology(t, "2x2")},
			"collective: topology covers 4 processors but the group has 6"},
		{"missing kernel", world, Spec{Op: OpAllReduce, BlockLen: 4}, "collective: reduction requires a combine kernel (pass WithKernel or WithCombine)"},
		{"block size not a multiple of the element size", world, Spec{Op: OpReduceScatter, BlockLen: 6, Reduce: int32s},
			"collective: block size 6 is not a multiple of the kernel's 4-byte elements"},
		{"unknown reduce algorithm", world, Spec{Op: OpAllReduce, Reduce: ReduceOptions{Algorithm: 3}}, "collective: unknown reduce algorithm ReduceAlgorithm(3)"},
		{"halving on a non-power-of-two group", world, Spec{Op: OpReduceScatter, Reduce: ReduceOptions{Algorithm: ReduceHalving}},
			"collective: recursive halving requires a power-of-two group size, got 6"},
		{"reduce radix out of range", world, Spec{Op: OpAllReduce, Reduce: ReduceOptions{Algorithm: ReduceBruck, Radix: 9}},
			"collective: reduce radix 9 out of range [2, 6]"},
		{"negative segments", world, Spec{Index: IndexOptions{Segments: -5}},
			"collective: segment count -5 out of range (0 or 1 is monolithic, AutoSegments is -1)"},
		{"negative reduce segments", world, Spec{Op: OpAllReduce, Reduce: ReduceOptions{Algorithm: ReduceBruck, Segments: -7}},
			"collective: segment count -7 out of range (0 or 1 is monolithic, AutoSegments is -1)"},
		{"invalid auto profile", world, Spec{Op: OpAllReduce, BlockLen: 4, Reduce: int32s, Auto: &negated},
			`collective: auto dispatch: costmodel: profile "negated" has negative parameters (beta=-1, tau=-2)`},
		{"invalid auto profile under a topology", world, Spec{Op: OpConcat, BlockLen: 4, Topology: topo, Auto: &negated},
			`collective: auto dispatch: costmodel: profile "negated" has negative parameters (beta=-1, tau=-2)`},
	}
	cache := NewPlanCache()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(e, tc.g, tc.spec)
			if msg := shouldBeError(err, tc.want); msg != "" {
				t.Errorf("Compile: %s", msg)
			}
			_, err = cache.Get(e, tc.g, tc.spec)
			if msg := shouldBeError(err, tc.want); msg != "" {
				t.Errorf("Get: %s", msg)
			}
		})
	}
	executions := []struct {
		name    string
		spec    Spec
		in, out any
		want    string
	}{
		{"rooted nil buffer", rooted(OpBroadcast), raw(4), (*buffers.Buffers)(nil), "collective: nil flat buffer"},
		{"broadcast buffer of another block size", rooted(OpBroadcast), raw(4), flat(n, 1, 5),
			"collective: broadcast buffer is 6x1 blocks of 5 bytes, want 6x1 of 4"},
		{"gather buffer of another group size", rooted(OpGather), flat(n+1, 1, 4), raw(n * 4),
			"collective: gather buffer is 7x1 blocks of 4 bytes, want 6x1 of 4"},
		{"scatter buffer of two blocks", rooted(OpScatter), raw(n * 4), flat(n, 2, 4),
			"collective: scatter buffer is 6x2 blocks of 4 bytes, want 6x1 of 4"},
		{"gather output short", rooted(OpGather), flat(n, 1, 4), raw(n*4 - 1), "collective: gather output is 23 bytes, want n*b = 24"},
		{"scatter input long", rooted(OpScatter), raw(n*4 + 1), flat(n, 1, 4), "collective: scatter input is 25 bytes, want n*b = 24"},
		{"broadcast data of another size", rooted(OpBroadcast), raw(3), flat(n, 1, 4), "collective: broadcast data is 3 bytes, want 4"},
		{"gather output of index shape", rooted(OpGather), flat(n, 1, 4), flat(n, n, 4),
			"collective: gather output is 144 bytes, want n*b = 24"},
		{"index input of a rooted shape", Spec{BlockLen: 4}, flat(n, 1, 4), raw(4),
			"collective: index plan input is 6x1 blocks of 4 bytes, want 6x6 of 4"},
		{"index output as bare bytes", Spec{BlockLen: 4}, flatSide, raw(n * n * 4), "collective: nil flat buffer"},
		{"index output aliasing the input", Spec{BlockLen: 4}, flatSide, flatSide, "collective: flat output must not alias the input"},
		{"layout plan on flat buffers", layoutPlan, flat(n, n, 2), flat(n, n, 2), "collective: index layout plan takes ragged buffers"},
		{"fixed-size plan on ragged buffers", Spec{BlockLen: 2}, raggedSide, ragged(sq6), "collective: index fixed-size plan takes flat buffers"},
		{"layout plan nil buffer", layoutPlan, (*buffers.Ragged)(nil), raggedSide, "collective: nil ragged buffer"},
		{"layout plan input missing", layoutPlan, nil, raggedSide, "collective: nil ragged buffer"},
		{"layout plan input of another layout", layoutPlan, ragged(wide6), raggedSide,
			"collective: index plan input layout is 6x6, want the plan's compiled layout (6x6)"},
		{"layout plan output of another layout", layoutPlan, raggedSide, ragged(wide6),
			"collective: index plan output layout does not match the plan's output shape (want 6x6, the input's transpose)"},
		{"ragged output aliasing the input", layoutPlan, raggedSide, raggedSide, "collective: ragged output must not alias the input"},
	}
	for _, tc := range executions {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := Compile(e, world, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			_, err = pl.Run(pl.Memory(tc.in, tc.out))
			if msg := shouldBeError(err, tc.want); msg != "" {
				t.Error(msg)
			}
		})
	}
	if cache.Len() != 0 {
		t.Errorf("rejected specs left %d cache entries", cache.Len())
	}
}

func mustVector(t *testing.T, n int) *blocks.Layout {
	t.Helper()
	l, err := blocks.Uniform(n, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustTopology(t *testing.T, spec string) *costmodel.Topology {
	t.Helper()
	topo, err := costmodel.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestCanonicalSpecsShareOneEntry: a field the selected family ignores
// never splits the cache.
func TestCanonicalSpecsShareOneEntry(t *testing.T) {
	const n = 8
	e := mpsim.MustNew(n)
	g := mpsim.WorldGroup(n)
	l, _ := blocks.Uniform(n, n, 4)
	topo := mustTopology(t, "2x4")
	sum, _ := buffers.Kernel(buffers.Sum, buffers.Int32)
	int32s := ReduceOptions{Kernel: sum, ElemSize: 4, KernelKey: "sum/int32"}
	with := func(o ReduceOptions, f func(*ReduceOptions)) ReduceOptions { f(&o); return o }
	pairs := []struct {
		name string
		a, b Spec
	}{
		{"radix, NoPack and segments off Bruck",
			Spec{Index: IndexOptions{Algorithm: IndexDirect}},
			Spec{Index: IndexOptions{Algorithm: IndexDirect, Radix: 4, NoPack: true, Segments: 3}}},
		{"segments on a layout plan",
			Spec{Op: OpIndexV, Layout: l}, Spec{Op: OpIndexV, Layout: l, Index: IndexOptions{Segments: 4}}},
		{"segments and index options on a mixed-radix plan",
			Spec{Radices: []int{2, 4}}, Spec{Radices: []int{2, 4}, Index: IndexOptions{Algorithm: IndexDirect, Segments: 4}}},
		{"segments 1 is monolithic",
			Spec{BlockLen: 8}, Spec{BlockLen: 8, Index: IndexOptions{Segments: 1}}},
		{"last-round policy off the circulant schedule",
			Spec{Op: OpConcat, Concat: ConcatOptions{Algorithm: ConcatRing}},
			Spec{Op: OpConcat, Concat: ConcatOptions{Algorithm: ConcatRing, LastRound: partition.MinVolume}}},
		{"last-round policy on a reduce-scatter",
			Spec{Op: OpReduceScatter, BlockLen: 4, Reduce: int32s},
			Spec{Op: OpReduceScatter, BlockLen: 4, Reduce: with(int32s, func(o *ReduceOptions) { o.LastRound = partition.MinRounds })}},
		{"radix and segments off the Bruck reduce-scatter",
			Spec{Op: OpAllReduce, BlockLen: 4, Reduce: int32s},
			Spec{Op: OpAllReduce, BlockLen: 4, Reduce: with(int32s, func(o *ReduceOptions) { o.Radix, o.Segments = 4, 2 })}},
		{"hier radices on the concatenation",
			Spec{Op: OpConcat, Hierarchical: true, Topology: topo},
			Spec{Op: OpConcat, Hierarchical: true, Topology: topo, Hier: HierOptions{IntraRadix: 2, InterRadix: 2}}},
		{"hier radices and flat options on the allreduce",
			Spec{Op: OpAllReduce, BlockLen: 4, Reduce: int32s, Hierarchical: true, Topology: topo},
			Spec{Op: OpAllReduce, BlockLen: 4, Hierarchical: true, Topology: topo, Hier: HierOptions{IntraRadix: 2},
				Reduce: with(int32s, func(o *ReduceOptions) { o.Algorithm, o.Radix, o.LastRound = ReduceBruck, 2, partition.MinVolume })}},
		{"a topology nobody asked to use, a layout and other operations' options on a fixed-size index",
			Spec{}, Spec{Hier: HierOptions{IntraRadix: 2}, Topology: topo, Layout: l,
				Concat: ConcatOptions{Algorithm: ConcatRing}, Reduce: int32s}},
		{"auto on a flat fixed-size index",
			Spec{}, Spec{Auto: &costmodel.SP1, Topology: mustTopology(t, "1x8")}},
		{"a root on anything but a one-to-all primitive",
			Spec{Op: OpConcat}, Spec{Op: OpConcat, Root: 5}},
		{"everything but the block size and the root on a one-to-all primitive",
			Spec{Op: OpScatter, BlockLen: 4, Root: 5},
			Spec{Op: OpScatter, BlockLen: 4, Root: 5, Layout: l, Index: IndexOptions{Radix: 4}, Radices: []int{2, 4}, Concat: ConcatOptions{Algorithm: ConcatRing},
				Reduce: int32s, Hierarchical: true, Hier: HierOptions{IntraRadix: 2}, Topology: topo, Auto: &costmodel.SP1}},
	}
	for _, tc := range pairs {
		t.Run(tc.name, func(t *testing.T) {
			c := NewPlanCache()
			a, err := c.Get(e, g, tc.a)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Get(e, g, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if a != b || c.Len() != 1 {
				t.Errorf("equal schedules compiled twice (%d entries)", c.Len())
			}
		})
	}
}

// TestPlanCacheEvictsLeastRecentlyUsed: ephemeral groups churn through
// a full cache in insertion order and never displace a plan that is
// still being used.
func TestPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	const n, inserts = 8, 300
	e := mpsim.MustNew(n)
	world := mpsim.WorldGroup(n)
	c := NewPlanCache()
	hotSpec := Spec{BlockLen: 4, Index: IndexOptions{Radix: 2}}
	hot, err := c.Get(e, world, hotSpec)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]*mpsim.Group, inserts)
	plans := make([]*Plan, inserts)
	for i := range groups {
		if groups[i], err = mpsim.NewGroup([]int{0, 2, 4, 6}, n); err != nil {
			t.Fatal(err)
		}
		if plans[i], err = c.Get(e, groups[i], Spec{BlockLen: 4}); err != nil {
			t.Fatal(err)
		}
		if got, _ := c.Get(e, world, hotSpec); got != hot {
			t.Fatalf("insert %d evicted the hot plan", i)
		}
		if c.Len() > maxCachedPlans {
			t.Fatalf("cache holds %d plans after insert %d, bound is %d", c.Len(), i, maxCachedPlans)
		}
	}
	// The survivors are exactly the most recent ones.
	for i := inserts - (maxCachedPlans - 1); i < inserts; i++ {
		if got, _ := c.Get(e, groups[i], Spec{BlockLen: 4}); got != plans[i] {
			t.Fatalf("group %d of %d was evicted before an older one", i, inserts)
		}
	}
	if c.Len() != maxCachedPlans {
		t.Errorf("cache holds %d plans, want %d", c.Len(), maxCachedPlans)
	}
}

// TestGetHitAllocatesNothing: the steady state of every resolution
// route — fixed, mixed-radix, layout, hierarchical, memoized auto
// verdict, rooted — is one allocation-free lookup.
func TestGetHitAllocatesNothing(t *testing.T) {
	const n = 16
	e := mpsim.MustNew(n)
	g := mpsim.WorldGroup(n)
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
		for j := range counts[i] {
			counts[i][j] = (i*7 + j*3) % 9
		}
	}
	l, err := blocks.Ragged(counts)
	if err != nil {
		t.Fatal(err)
	}
	topo := mustTopology(t, "4x4")
	sum, _ := buffers.Kernel(buffers.Sum, buffers.Int32)
	int32s := ReduceOptions{Kernel: sum, ElemSize: 4, KernelKey: "sum/int32"}
	specs := []struct {
		name string
		spec Spec
	}{
		{"fixed", Spec{BlockLen: 64, Index: IndexOptions{Radix: 2}}},
		{"mixed-radix", Spec{BlockLen: 64, Radices: []int{2, 2, 4}}},
		{"layout", Spec{Op: OpIndexV, Layout: l}},
		{"hierarchical index", Spec{BlockLen: 64, Hierarchical: true, Topology: topo}},
		{"hierarchical allreduce", Spec{Op: OpAllReduce, BlockLen: 64, Reduce: int32s, Hierarchical: true, Topology: topo}},
		{"auto layout verdict", Spec{Op: OpIndexV, Layout: l, Auto: &costmodel.SP1}},
		{"auto reduce verdict", Spec{Op: OpAllReduce, BlockLen: 64, Reduce: int32s, Auto: &costmodel.SP1}},
		{"auto topology verdict", Spec{Op: OpConcat, BlockLen: 64, Topology: topo, Auto: &costmodel.SP1}},
		{"broadcast", Spec{Op: OpBroadcast, BlockLen: 64, Root: 3}},
		{"gather", Spec{Op: OpGather, BlockLen: 64, Root: 3}},
		{"scatter", Spec{Op: OpScatter, BlockLen: 64, Root: 3}},
	}
	c := NewPlanCache()
	for _, tc := range specs {
		want, err := c.Get(e, g, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if got, _ := c.Get(e, g, tc.spec); got != want {
				t.Fatalf("%s: a repeated Get missed the cache", tc.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a Get hit allocates %v times, want 0", tc.name, allocs)
		}
	}
}

// TestKeyOfCoversEverySpecField: the cache key is complete. Every leaf
// field of a Spec — the fields of this package's option structs included —
// is set, alone, to two non-zero values; each must key apart from the
// zero Spec, from the other value and from every other field's, or two
// schedules would share a cache entry. It reads the fields by
// reflection, so a field added to Spec or its options and forgotten in
// keyOf fails here. The one field with no place in a comparable key is
// the waiver row.
func TestKeyOfCoversEverySpecField(t *testing.T) {
	const n = 4
	waivers := map[string]string{
		"Reduce.Kernel": "a func is not comparable; KernelKey is its identity",
	}
	// What a field that is not a number, a bool or a string is set to.
	values := map[reflect.Type][2]any{
		reflect.TypeOf((*blocks.Layout)(nil)):      {must(blocks.Uniform(n, n, 4)), must(blocks.Uniform(n, n, 8))},
		reflect.TypeOf((*costmodel.Topology)(nil)): {mustTopology(t, "2x2"), mustTopology(t, "1x4")},
		reflect.TypeOf((*costmodel.Profile)(nil)):  {&costmodel.Profile{Beta: 1, Tau: 1}, &costmodel.Profile{Beta: 1, Tau: 2}},
		reflect.TypeOf([]int(nil)):                 {[]int{2, 2}, []int{4}},
	}
	e, g := mpsim.MustNew(n), mpsim.WorldGroup(n)
	var s Spec
	seen := map[planKey]string{keyOf(e, g, &s): "the zero Spec"}
	waived := 0
	var walk func(path string, f reflect.Value)
	walk = func(path string, f reflect.Value) {
		if f.Kind() == reflect.Struct && f.Type().PkgPath() == reflect.TypeOf(s).PkgPath() {
			for i := 0; i < f.NumField(); i++ {
				walk(strings.TrimPrefix(path+"."+f.Type().Field(i).Name, "."), f.Field(i))
			}
			return
		}
		if why, ok := waivers[path]; ok {
			t.Logf("Spec.%s is not in the key: %s", path, why)
			waived++
			return
		}
		var vals []any
		switch f.Kind() {
		case reflect.Int:
			vals = []any{1, 2}
		case reflect.Bool:
			vals = []any{true}
		case reflect.String:
			vals = []any{"x", "y"}
		default:
			two, ok := values[f.Type()]
			if !ok {
				t.Fatalf("Spec.%s: no non-zero values for a %v; add them to the table", path, f.Type())
			}
			vals = two[:]
		}
		for _, v := range vals {
			f.Set(reflect.ValueOf(v).Convert(f.Type()))
			key, what := keyOf(e, g, &s), fmt.Sprintf("Spec.%s = %v", path, v)
			if prev, dup := seen[key]; dup {
				t.Errorf("%s keys like %s: keyOf does not tell them apart", what, prev)
			}
			seen[key] = what
		}
		f.SetZero()
	}
	walk("", reflect.ValueOf(&s).Elem())
	if waived != len(waivers) {
		t.Errorf("%d of the %d waivers name a field Spec no longer has", len(waivers)-waived, len(waivers))
	}
}
