package collective

// The oracle (see the package comment): goal, the operation's
// definition, and Alloc, Fill, Run, Verify — Exercise in a row.

import (
	"bytes"
	"fmt"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
)

// goal defines the operation: output block j of group rank r holds
// input block blk of rank from — rank j's block r (index), its only
// block (concat, gather), the root's only block (broadcast) or block r
// (scatter) — or, where cnt is n, the combination of every rank's
// block blk: chunk j, the reduce-scatter's chunk r.
func (pl *Plan) goal(r, j int) (from, blk, cnt int) {
	from, blk, cnt = j, r, 1
	switch pl.op {
	case OpConcat, OpConcatV, OpGather:
		blk = 0
	case OpReduceScatter:
		from, cnt = 0, pl.group.Size()
	case OpAllReduce:
		from, blk, cnt = 0, j, pl.group.Size()
	case OpBroadcast:
		from, blk = pl.root, 0
	case OpScatter:
		from = pl.root
	}
	return from, blk, cnt
}

// sizes returns the bytes of group rank r's input and output regions.
func (pl *Plan) sizes(r int) (in, out int) {
	if pl.layout != nil {
		return pl.layout.RowBytes(r), pl.outLayout.RowBytes(r)
	}
	return pl.blocks(regIn, r) * pl.blockLen, pl.blocks(regOut, r) * pl.blockLen
}

// Memory is the input and output region (regIn, regOut) of every rank
// of one plan shape: the one way caller bytes reach an execution. Plans
// of equal shape — operation, group size, block size or layout, root —
// share it; a Plan keeps none of it.
type Memory struct {
	side [2]slab
}

// slab is one side of an execution: Proc(me) is group rank me's memory,
// whose shape the plan knows. Flat and ragged buffers are slabs.
type slab interface{ Proc(me int) []byte }

// rootOnly is the side of a one-to-all primitive only the root has.
type rootOnly struct {
	root int
	data []byte
}

func (r rootOnly) Proc(me int) []byte {
	if me == r.root {
		return r.data
	}
	return nil
}

// rootSide reports whether side reg of the plan is the root's alone: a
// rank other than the root (-1 stands for any) has no block of it.
func (pl *Plan) rootSide(reg regID) bool { return pl.blocks(reg, -1) == 0 }

// Memory wraps the caller's two sides into memory for the plan. Each is
// a *buffers.Buffers, or under a layout a *buffers.Ragged; a side only
// the root has is the root's bytes, given as a []byte or as the Bytes
// of a *buffers.Buffers. Any other value is a missing side. Run rejects
// a side of another shape.
func (pl *Plan) Memory(in, out any) Memory {
	var m Memory
	for reg, s := range [...]any{in, out} {
		switch s := s.(type) {
		case *buffers.Buffers:
			m.side[reg] = s
			if s != nil && pl.rootSide(regID(reg)) {
				m.side[reg] = rootOnly{pl.root, s.Bytes()}
			}
		case *buffers.Ragged:
			m.side[reg] = s
		case []byte:
			if pl.rootSide(regID(reg)) {
				m.side[reg] = rootOnly{pl.root, s}
			}
		}
	}
	return m
}

// Alloc returns zeroed memory of the plan's shape: per side a ragged
// slab under a layout, the root's bytes alone where no other rank has
// any, a flat slab otherwise.
func (pl *Plan) Alloc() (Memory, error) {
	var side [2]any
	for reg, lay := range []*blocks.Layout{regIn: pl.layout, regOut: pl.outLayout} {
		var err error
		switch {
		case lay != nil:
			side[reg], err = buffers.NewRagged(lay)
		case pl.rootSide(regID(reg)):
			side[reg] = make([]byte, pl.blocks(regID(reg), pl.root)*pl.blockLen)
		default:
			side[reg], err = buffers.New(pl.group.Size(), pl.blocks(regID(reg), -1), pl.blockLen)
		}
		if err != nil {
			return Memory{}, err
		}
	}
	return pl.Memory(side[regIn], side[regOut]), nil
}

// bind binds group rank me's input and output regions of the memory to
// its frame.
func (m Memory) bind(f *frame, me int) {
	f.reg[regIn] = region{f.pr.shapeOf(regIn, me), m.side[regIn].Proc(me)}
	f.reg[regOut] = region{f.pr.shapeOf(regOut, me), m.side[regOut].Proc(me)}
}

// block returns block j of rank r's side reg of the memory.
func (pl *Plan) block(m Memory, reg regID, r, j int) []byte {
	off, n := pl.prog.shapeOf(reg, r).span(j)
	return m.side[reg].Proc(r)[off : off+n]
}

// fits rejects memory that is not of the plan's shape, side by side
// under Memory's rules, and an output that aliases the input: the one
// check every execution passes.
func (pl *Plan) fits(m Memory) error {
	kind := "flat"
	if pl.layout != nil {
		kind = "ragged"
	}
	for reg, s := range m.side {
		if err := pl.fitsSide(regID(reg), s, kind); err != nil {
			return err
		}
	}
	if m.side[regIn] == m.side[regOut] {
		return fmt.Errorf("collective: %s output must not alias the input", kind)
	}
	return nil
}

// fitsSide checks side reg of memory for the plan; kind names the
// buffers the plan takes.
func (pl *Plan) fitsSide(reg regID, s slab, kind string) error {
	n, root := pl.group.Size(), pl.rootSide(reg)
	what := [...]string{regIn: "input", regOut: "output"}[reg]
	switch s := s.(type) {
	case *buffers.Buffers:
		switch {
		case s == nil:
			return fmt.Errorf("collective: nil flat buffer")
		case pl.layout != nil:
			return fmt.Errorf("collective: %s layout plan takes ragged buffers", pl.op)
		case root:
			break
		case s.Procs() != n || s.Blocks() != pl.blocks(reg, -1) || s.BlockLen() != pl.blockLen:
			name := "plan " + what
			if pl.op.rooted() {
				name = "buffer"
			}
			return fmt.Errorf("collective: %s %s is %dx%d blocks of %d bytes, want %dx%d of %d",
				pl.op, name, s.Procs(), s.Blocks(), s.BlockLen(), n, pl.blocks(reg, -1), pl.blockLen)
		default:
			return nil
		}
	case *buffers.Ragged:
		switch {
		case s == nil:
			return fmt.Errorf("collective: nil ragged buffer")
		case pl.layout == nil:
			return fmt.Errorf("collective: %s fixed-size plan takes flat buffers", pl.op)
		case reg == regIn && !s.Layout().Equal(pl.layout):
			return fmt.Errorf("collective: %s plan input layout is %dx%d, want the plan's compiled layout (%dx%d)",
				pl.op, s.Layout().Rows(), s.Layout().Cols(), pl.layout.Rows(), pl.layout.Cols())
		case reg == regOut && !s.Layout().Equal(pl.outLayout):
			return fmt.Errorf("collective: %s plan output layout does not match the plan's output shape (want %dx%d, the input's %s)",
				pl.op, pl.outLayout.Rows(), pl.outLayout.Cols(),
				map[Op]string{OpIndexV: "transpose", OpConcatV: "concatenation"}[pl.op])
		}
		return nil
	case rootOnly:
		want := pl.blocks(reg, pl.root) * pl.blockLen
		switch {
		case !root || s.root != pl.root:
			break
		case len(s.data) == want:
			return nil
		case pl.op == OpBroadcast:
			return fmt.Errorf("collective: broadcast data is %d bytes, want %d", len(s.data), want)
		default:
			return fmt.Errorf("collective: %s %s is %d bytes, want n*b = %d", pl.op, what, len(s.data), want)
		}
	case nil:
		return fmt.Errorf("collective: nil %s buffer", kind)
	}
	return fmt.Errorf("collective: memory was not allocated for the shape of this %v plan", pl.op)
}

// Fill writes every input block of memory of the plan's shape:
// fill(blk, rank, block).
func (pl *Plan) Fill(m Memory, fill func(blk []byte, rank, block int)) {
	for r := 0; r < pl.group.Size(); r++ {
		for j := 0; j < pl.blocks(regIn, r); j++ {
			fill(pl.block(m, regIn, r, j), r, j)
		}
	}
}

// Labels is the fill whose every byte names its rank, block and offset.
func Labels(blk []byte, rank, block int) {
	for x := range blk {
		blk[x] = byte(rank*131 + block*31 + x*7)
	}
}

// Run executes the plan once on the memory, the one entry of a single
// execution.
func (pl *Plan) Run(m Memory) (*Result, error) {
	if err := pl.fits(m); err != nil {
		return nil, err
	}
	return pl.run(m)
}

// Verify compares every output block of memory of the plan's shape
// with goal. A reduction's reference is the serial fold in rank order:
// bit-exact when the kernel's result does not depend on the order —
// integers, or the small integer-valued floats of buffers.DataType.Fill.
func (pl *Plan) Verify(m Memory) error {
	var want []byte
	for r := 0; r < pl.group.Size(); r++ {
		for j := 0; j < pl.blocks(regOut, r); j++ {
			from, blk, cnt := pl.goal(r, j)
			want = append(want[:0], pl.block(m, regIn, from, blk)...)
			for q := 1; q < cnt && len(want) > 0; q++ {
				pl.combine(want, pl.block(m, regIn, q, blk))
			}
			if !bytes.Equal(pl.block(m, regOut, r, j), want) {
				return fmt.Errorf("%v: rank %d output block %d differs from the operation's definition", pl.op, r, j)
			}
		}
	}
	return nil
}

// Exercise runs the plan once on freshly allocated, filled memory and
// verifies the outcome: every output block, and the measured C1 and C2
// against the compiled ones — which is what lets a study read a plan's
// Rounds and PredictedC2 where it used to run the schedule to count.
func Exercise(pl *Plan, fill func(blk []byte, rank, block int)) (*Result, error) {
	m, err := pl.Alloc()
	if err != nil {
		return nil, err
	}
	pl.Fill(m, fill)
	res, err := pl.Run(m)
	if err != nil {
		return nil, err
	}
	if res.C1 != pl.Rounds() || res.C2 != pl.PredictedC2() {
		return nil, fmt.Errorf("%v: measured C1=%d C2=%d, compiled C1=%d C2=%d", pl.op, res.C1, res.C2, pl.Rounds(), pl.PredictedC2())
	}
	return res, pl.Verify(m)
}
