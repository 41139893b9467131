package collective

import (
	"strings"
	"testing"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
)

// checkConfig compiles one plan for the static-verification tests.
type checkConfig struct {
	name    string
	n, k, b int
	compile func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan
}

func compileIndexT(opt IndexOptions) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		pl, err := CompileIndex(e, g, b, opt)
		if err != nil {
			t.Fatalf("CompileIndex: %v", err)
		}
		return pl
	}
}

func compileConcatT(opt ConcatOptions) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		pl, err := CompileConcat(e, g, b, opt)
		if err != nil {
			t.Fatalf("CompileConcat: %v", err)
		}
		return pl
	}
}

func compileReduceT(kind ReduceKind, opt ReduceOptions) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		kern, err := buffers.Kernel(buffers.Sum, buffers.Int32)
		if err != nil {
			t.Fatalf("buffers.Kernel: %v", err)
		}
		opt.Kernel = kern
		pl, err := CompileReduce(e, g, kind, b, opt)
		if err != nil {
			t.Fatalf("CompileReduce: %v", err)
		}
		return pl
	}
}

// compileHierT compiles a hierarchical plan of the given operation on
// the topology spec.
func compileHierT(op Op, spec string) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		topo, err := costmodel.ParseTopology(spec)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", spec, err)
		}
		kern, _ := buffers.Kernel(buffers.Sum, buffers.Int32)
		pl, err := Compile(e, g, Spec{Op: op, BlockLen: b, Hierarchical: true, Topology: topo, Reduce: ReduceOptions{Kernel: kern}})
		if err != nil {
			t.Fatalf("hierarchical %v compile: %v", op, err)
		}
		return pl
	}
}

// compileIndexVT compiles a layout plan on a deterministic ragged
// layout with zero-length blocks.
func compileIndexVT(opt IndexOptions) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		n := g.Size()
		counts := make([][]int, n)
		for i := range counts {
			counts[i] = make([]int, n)
			for j := range counts[i] {
				counts[i][j] = (i*3 + j*5) % (b + 1)
			}
		}
		l, err := blocks.Ragged(counts)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Compile(e, g, Spec{Op: OpIndexV, Layout: l, Index: opt})
		if err != nil {
			t.Fatalf("CompileIndexV: %v", err)
		}
		return pl
	}
}

// compileRootedT compiles a one-to-all primitive rooted at rank 3.
func compileRootedT(op Op) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		pl, err := Compile(e, g, Spec{Op: op, BlockLen: b, Root: 3})
		if err != nil {
			t.Fatalf("Compile(%v): %v", op, err)
		}
		return pl
	}
}

func checkConfigs() []checkConfig {
	return []checkConfig{
		{"index-bruck-n8-k1-r2", 8, 1, 4, compileIndexT(IndexOptions{Radix: 2})},
		{"index-bruck-n12-k3", 12, 3, 4, compileIndexT(IndexOptions{})},
		{"index-bruck-n7-k2", 7, 2, 3, compileIndexT(IndexOptions{})},
		{"index-nopack-n9-k1-r3", 9, 1, 4, compileIndexT(IndexOptions{Radix: 3, NoPack: true})},
		{"index-direct-n8-k2", 8, 2, 4, compileIndexT(IndexOptions{Algorithm: IndexDirect})},
		{"index-xor-n8-k2", 8, 2, 4, compileIndexT(IndexOptions{Algorithm: IndexPairwiseXOR})},
		{"indexv-bruck-n6-k2", 6, 2, 7, compileIndexVT(IndexOptions{})},
		{"indexv-direct-n6-k2", 6, 2, 7, compileIndexVT(IndexOptions{Algorithm: IndexDirect})},
		{"concat-circulant-n11-k2", 11, 2, 5, compileConcatT(ConcatOptions{Algorithm: ConcatCirculant})},
		{"concat-circulant-n13-k3", 13, 3, 4, compileConcatT(ConcatOptions{Algorithm: ConcatCirculant})},
		{"concat-trivial-n5-k4", 5, 4, 4, compileConcatT(ConcatOptions{Algorithm: ConcatCirculant})},
		{"concat-folklore-n6-k2", 6, 2, 4, compileConcatT(ConcatOptions{Algorithm: ConcatFolklore})},
		{"concat-ring-n6-k1", 6, 1, 4, compileConcatT(ConcatOptions{Algorithm: ConcatRing})},
		{"concat-recdbl-n8-k1", 8, 1, 4, compileConcatT(ConcatOptions{Algorithm: ConcatRecursiveDoubling})},
		{"reducescatter-ring-n6-k1", 6, 1, 8, compileReduceT(ReduceScatterKind, ReduceOptions{Algorithm: ReduceRing})},
		{"reducescatter-halving-n8-k1", 8, 1, 8, compileReduceT(ReduceScatterKind, ReduceOptions{Algorithm: ReduceHalving})},
		{"reducescatter-bruck-n9-k2-r3", 9, 2, 8, compileReduceT(ReduceScatterKind, ReduceOptions{Algorithm: ReduceBruck, Radix: 3})},
		{"allreduce-bruck-n6-k2", 6, 2, 8, compileReduceT(AllReduceKind, ReduceOptions{Algorithm: ReduceBruck})},
		{"allreduce-ring-n5-k4", 5, 4, 8, compileReduceT(AllReduceKind, ReduceOptions{Algorithm: ReduceRing})},
		{"broadcast-n7-k2-root3", 7, 2, 4, compileRootedT(OpBroadcast)},
		{"gather-n7-k2-root3", 7, 2, 4, compileRootedT(OpGather)},
		{"scatter-n7-k2-root3", 7, 2, 4, compileRootedT(OpScatter)},
		{"hier-index-4-4-3", 11, 2, 4, compileHierT(OpIndex, "4,4,3")},
		{"hier-concat-4-4-3", 11, 1, 4, compileHierT(OpConcat, "4,4,3")},
		{"hier-allreduce-4x4", 16, 2, 4, compileHierT(OpAllReduce, "4x4")},
	}
}

func compileCheckPlan(t *testing.T, c checkConfig) *Plan {
	t.Helper()
	e, err := mpsim.New(c.n, mpsim.Ports(c.k))
	if err != nil {
		t.Fatalf("mpsim.New: %v", err)
	}
	return c.compile(t, e, mpsim.WorldGroup(c.n), c.b)
}

// exchangeSteps returns the exchange steps of group rank 0's role.
func exchangeSteps(pl *Plan) []*step { return exchanges(pl.prog, 0) }

// mentions reports whether any violation contains sub.
func mentions(v []string, sub string) bool {
	for _, msg := range v {
		if strings.Contains(msg, sub) {
			return true
		}
	}
	return false
}

// TestCheckCleanPlans proves every compiled schedule family passes the
// static verifier untouched, and draws its snapshots.
func TestCheckCleanPlans(t *testing.T) {
	for _, c := range checkConfigs() {
		t.Run(c.name, func(t *testing.T) {
			pl := compileCheckPlan(t, c)
			if v := pl.Check(); len(v) != 0 {
				t.Fatalf("Check() on a clean plan reported:\n  %s", strings.Join(v, "\n  "))
			}
			if _, err := pl.Snapshots(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckPerturbations mutates compiled programs the ways a
// miscompiled schedule would drift — a step's peer, an extent, a phase
// tag, a stored count — and asserts Check rejects each one with a
// violation naming the break. Every schedule family has at least one
// negative control whose wrong peer or dropped extent must surface as a
// delivery violation.
func TestCheckPerturbations(t *testing.T) {
	configs := map[string]checkConfig{}
	for _, c := range checkConfigs() {
		configs[c.name] = c
	}
	bruck := checkConfig{"", 8, 2, 4, compileIndexT(IndexOptions{})}
	circ := configs["concat-circulant-n11-k2"]
	first := func(pl *Plan) *xfer { return &exchangeSteps(pl)[0].xfers[0] }
	wrongPeer := func(pl *Plan) { first(pl).to.c++ }
	dropExtent := func(pl *Plan) { x := first(pl); x.send = x.send[:len(x.send)-1] }
	// memberStep returns an exchange step of rank 1, a non-leader member
	// of the first group of a hierarchical plan.
	memberStep := func(pl *Plan) *step { return exchanges(pl.prog, 1)[0] }
	cases := []struct {
		name    string
		base    checkConfig
		mutate  func(pl *Plan)
		wantSub string
	}{
		{
			name: "index extra transfer breaks k-port",
			base: bruck,
			mutate: func(pl *Plan) {
				rd := exchangeSteps(pl)[0]
				one := []extent{blocksAt(regWork, fixed(0), 1)}
				rd.xfers = append(rd.xfers[:len(rd.xfers):len(rd.xfers)],
					xfer{to: plus(3), from: plus(-3), send: one, recv: one}, xfer{to: plus(5), from: plus(-5), send: one, recv: one})
			},
			wantSub: "k-port",
		},
		{
			name: "index dropped block breaks accounting and delivery",
			base: bruck,
			mutate: func(pl *Plan) {
				// Only the send side shrinks: the receiver still expects
				// the full payload.
				x := first(pl)
				x.send = append([]extent(nil), x.send[:len(x.send)-1]...)
			},
			wantSub: "bytes",
		},
		{
			name:    "index dropped block with fixed bytes breaks delivery",
			base:    bruck,
			mutate:  func(pl *Plan) { x := first(pl); x.send = x.send[:len(x.send)-1]; x.recv = x.send },
			wantSub: "delivery",
		},
		{
			name:    "index wrong c2",
			base:    bruck,
			mutate:  func(pl *Plan) { pl.c2++ },
			wantSub: "c2",
		},
		{
			name:    "index c1 below lower bound",
			base:    bruck,
			mutate:  func(pl *Plan) { pl.c1lb = pl.c1 + 1 },
			wantSub: "lower bound",
		},
		{
			name:    "index self-send offset",
			base:    bruck,
			mutate:  func(pl *Plan) { first(pl).to = plus(0) },
			wantSub: "self-send",
		},
		{
			name: "index duplicate partner offset",
			base: bruck,
			mutate: func(pl *Plan) {
				rd := exchangeSteps(pl)[0]
				rd.xfers[1].to, rd.xfers[1].from = rd.xfers[0].to, rd.xfers[0].from
			},
			wantSub: "duplicate partner",
		},
		{
			name: "index dropped round",
			base: bruck,
			mutate: func(pl *Plan) {
				ro := &pl.prog.roles[0]
				ro.steps = ro.steps[:len(ro.steps)-1] // the final round is the last step
				pl.c1--
			},
			wantSub: "delivery",
		},
		{
			name: "index last receive left in scratch",
			base: bruck,
			mutate: func(pl *Plan) {
				// Slots 3..5 of the final round belong in output blocks
				// me-3..me-5; scratch is released with them still in it.
				steps := exchangeSteps(pl)
				x := &steps[len(steps)-1].xfers[0]
				x.recv = []extent{slots(regWork, 3, 3)}
			},
			wantSub: "rank 0 output block 3 does not hold its 4 bytes",
		},
		{
			name:    "concat wrong c1",
			base:    circ,
			mutate:  func(pl *Plan) { pl.c1++ },
			wantSub: "c1",
		},
		{
			name: "concat premature doubling send",
			base: circ,
			mutate: func(pl *Plan) {
				// The last doubling round sends one slot more than it holds.
				for _, st := range exchangeSteps(pl) {
					if st.phase == "doubling" {
						st.xfers[0].send[0].n++
					}
				}
			},
			wantSub: "",
		},
		{
			name: "concat dropped last round",
			base: circ,
			mutate: func(pl *Plan) {
				ro := &pl.prog.roles[0]
				last := len(ro.steps) - 2 // the final round precedes the rotation
				ro.steps = append(ro.steps[:last], ro.steps[last+1:]...)
				pl.c1--
			},
			wantSub: "delivery",
		},
		{
			name: "concat run outside block",
			base: circ,
			mutate: func(pl *Plan) {
				for _, st := range exchangeSteps(pl) {
					if st.phase == "last" {
						st.xfers[0].recv[0].len = int32(pl.blockLen + 1)
					}
				}
			},
			wantSub: "outside block",
		},
		// One delivery negative control per remaining family.
		{"nopack wrong peer", configs["index-nopack-n9-k1-r3"], wrongPeer, "delivery"},
		{"direct wrong peer", configs["index-direct-n8-k2"], wrongPeer, "delivery"},
		{"xor wrong peer", configs["index-xor-n8-k2"], wrongPeer, "delivery"},
		{"indexv direct dropped extent", configs["indexv-direct-n6-k2"], dropExtent, "delivery"},
		{"trivial dropped extent", configs["concat-trivial-n5-k4"], dropExtent, "delivery"},
		{"ring dropped extent", configs["concat-ring-n6-k1"], dropExtent, "delivery"},
		{"folklore wrong peer", configs["concat-folklore-n6-k2"], func(pl *Plan) { exchanges(pl.prog, 1)[0].xfers[0].to.c = 2 }, "delivery"},
		// Rank 4 is virtual rank 1 of the tree rooted at 3, a child of the
		// root: re-point it at rank 5.
		{"gather child re-pointed", configs["gather-n7-k2-root3"], func(pl *Plan) { exchanges(pl.prog, 4)[0].xfers[0].to.c = 5 }, "delivery"},
		{"recdbl short run", configs["concat-recdbl-n8-k1"], func(pl *Plan) { exchangeSteps(pl)[2].xfers[0].send[0].n-- }, "delivery"},
		{"ring-reduce wrong peer", configs["reducescatter-ring-n6-k1"], wrongPeer, "delivery"},
		{"halving dropped extent", configs["reducescatter-halving-n8-k1"], dropExtent, "delivery"},
		{"halving overwrites instead of combining", configs["reducescatter-halving-n8-k1"], func(pl *Plan) { first(pl).combine = false }, "delivery"},
		{"reduce-bruck wrong peer", configs["reducescatter-bruck-n9-k2-r3"], wrongPeer, "delivery"},
		// A swap hands the whole region to the engine: flagged on a transfer
		// that sends half a region and combines, it would give away the
		// half that stays; cleared on a ring round, the flag is only stale.
		{"halving transfer flagged as a swap", configs["reducescatter-halving-n8-k1"], func(pl *Plan) { first(pl).swap = true }, "swap = true, its extents say false"},
		{"ring swap flag cleared", configs["reducescatter-ring-n6-k1"], func(pl *Plan) { first(pl).swap = false }, "swap = false, its extents say true"},
		{"ring swap of part of the region", configs["reducescatter-ring-n6-k1"], func(pl *Plan) {
			x := first(pl)
			x.send = []extent{spanAt(regWork, fixed(0), 0, 4)}
			x.recv = x.send
		}, "swap = true, its extents say false"},
		{"allreduce ring wrong peer", configs["allreduce-ring-n5-k4"], wrongPeer, "delivery"},
		{"hier index member bypasses the leader", configs["hier-index-4-4-3"], func(pl *Plan) { memberStep(pl).xfers[0].to.c = 2 }, "delivery"},
		{"hier concat dropped extent", configs["hier-concat-4-4-3"], func(pl *Plan) {
			x := &memberStep(pl).xfers[0]
			x.recv = x.recv[:len(x.recv)-1]
		}, "delivery"},
		{"hier allreduce member bypasses the leader", configs["hier-allreduce-4x4"], func(pl *Plan) { memberStep(pl).xfers[0].to.c = 2 }, "delivery"},
		{"hier allreduce phase tag", configs["hier-allreduce-4x4"], func(pl *Plan) { memberStep(pl).phase = "broadcast" }, "phase"},
		{"hier index gather crosses groups", configs["hier-index-4-4-3"], func(pl *Plan) { memberStep(pl).xfers[0].to.c = 4 }, "link"},
		// Rank 4 leads group 1 (ranks 4..7): its inter-reduce send to rank
		// 0 re-pointed at its own member 5.
		{"hier allreduce leader send stays inside its group", configs["hier-allreduce-4x4"], func(pl *Plan) {
			for _, st := range exchanges(pl.prog, 4) {
				if st.phase == "inter-reduce" {
					st.xfers[0].to.c = 5
				}
			}
		}, "link"},
		// The phase table finish derives, re-read against the rounds.
		{"hier index phase table gap", configs["hier-index-4-4-3"], func(pl *Plan) { pl.phases[1].First++ }, "tile"},
		{"hier allreduce phase c2 drift", configs["hier-allreduce-4x4"], func(pl *Plan) { pl.phases[0].C2++ }, "c2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := compileCheckPlan(t, tc.base)
			tc.mutate(pl)
			v := pl.Check()
			if len(v) == 0 {
				t.Fatalf("Check() accepted the perturbed plan")
			}
			if !mentions(v, tc.wantSub) {
				t.Fatalf("no violation mentions %q; got:\n  %s", tc.wantSub, strings.Join(v, "\n  "))
			}
			if _, err := pl.Snapshots(); err == nil {
				t.Fatalf("Snapshots() drew the perturbed plan")
			}
		})
	}
}
