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
// of one plan shape. Plans of equal shape — operation, group size,
// block size or layout, root — share it.
type Memory struct {
	n    int
	side [2]slab
}

// Flat returns the memory as the flat buffers Plan.Bind takes; a side
// of a layout plan or only the root has is nil.
func (m *Memory) Flat() (in, out *buffers.Buffers) {
	in, _ = m.side[regIn].(*buffers.Buffers)
	out, _ = m.side[regOut].(*buffers.Buffers)
	return in, out
}

// Alloc returns zeroed memory of the plan's shape: per side a ragged
// slab under a layout, the root's bytes alone where no other rank has
// any, a flat slab otherwise.
func (pl *Plan) Alloc() (*Memory, error) {
	n := pl.group.Size()
	m := &Memory{n: n}
	for reg, lay := range []*blocks.Layout{regIn: pl.layout, regOut: pl.outLayout} {
		var err error
		switch others := pl.blocks(regID(reg), (pl.root+1)%n); {
		case lay != nil:
			m.side[reg], err = buffers.NewRagged(lay)
		case others > 0:
			m.side[reg], err = buffers.New(n, others, pl.blockLen)
		default:
			m.side[reg] = rootOnly{pl.root, make([]byte, pl.blocks(regID(reg), pl.root)*pl.blockLen)}
		}
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// block returns block j of rank r's side reg of the memory.
func (pl *Plan) block(m *Memory, reg regID, r, j int) []byte {
	off, n := pl.prog.shapeOf(reg, r).span(j)
	return m.side[reg].Proc(r)[off : off+n]
}

// fits rejects memory of another shape.
func (pl *Plan) fits(m *Memory) error {
	ok := m.n == pl.group.Size()
	for r := 0; ok && r < m.n; r++ {
		in, out := pl.sizes(r)
		ok = len(m.side[regIn].Proc(r)) == in && len(m.side[regOut].Proc(r)) == out
	}
	if !ok {
		return fmt.Errorf("collective: memory was not allocated for the shape of this %v plan", pl.op)
	}
	return nil
}

// Fill writes every input block of memory of the plan's shape:
// fill(blk, rank, block).
func (pl *Plan) Fill(m *Memory, fill func(blk []byte, rank, block int)) {
	for r := 0; r < m.n; r++ {
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

// Run executes the plan once on the memory.
func (pl *Plan) Run(m *Memory) (*Result, error) {
	if err := pl.fits(m); err != nil {
		return nil, err
	}
	return pl.run(m.side[regIn], m.side[regOut])
}

// Verify compares every output block of memory of the plan's shape
// with goal. A reduction's reference is the serial fold in rank order:
// bit-exact when the kernel's result does not depend on the order —
// integers, or the small integer-valued floats of buffers.DataType.Fill.
func (pl *Plan) Verify(m *Memory) error {
	var want []byte
	for r := 0; r < m.n; r++ {
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
