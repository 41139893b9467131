package collective

import (
	"bruck/internal/buffers"
	"bruck/internal/mpsim"
)

// Compile-and-execute-once helpers for the tests: each compiles the
// spec uncached and runs it on fresh buffers, the [][][]byte forms
// copying in and out around the flat path.

func runFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Buffers, s Spec) (*Result, error) {
	s.BlockLen = in.BlockLen()
	pl, err := Compile(e, g, s)
	if err != nil {
		return nil, err
	}
	return pl.Run(pl.Memory(in, out))
}

func runRagged(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Ragged, s Spec) (*Result, error) {
	s.Layout = in.Layout()
	pl, err := Compile(e, g, s)
	if err != nil {
		return nil, err
	}
	return pl.Run(pl.Memory(in, out))
}

func runSlices(e *mpsim.Engine, g *mpsim.Group, fin *buffers.Buffers, err error, s Spec) ([][][]byte, *Result, error) {
	if err != nil {
		return nil, nil, err
	}
	fout, err := buffers.New(g.Size(), g.Size(), fin.BlockLen())
	if err != nil {
		return nil, nil, err
	}
	res, err := runFlat(e, g, fin, fout, s)
	if err != nil {
		return nil, nil, err
	}
	return fout.ToMatrix(), res, nil
}

func indexSlices(e *mpsim.Engine, g *mpsim.Group, in [][][]byte, opt IndexOptions) ([][][]byte, *Result, error) {
	fin, err := buffers.FromMatrix(in)
	return runSlices(e, g, fin, err, Spec{Op: OpIndex, Index: opt})
}

func indexMixedSlices(e *mpsim.Engine, g *mpsim.Group, in [][][]byte, radices []int) ([][][]byte, *Result, error) {
	fin, err := buffers.FromMatrix(in)
	return runSlices(e, g, fin, err, mixedSpec(0, radices))
}

func concatSlices(e *mpsim.Engine, g *mpsim.Group, in [][]byte, opt ConcatOptions) ([][][]byte, *Result, error) {
	fin, err := buffers.FromVector(in)
	return runSlices(e, g, fin, err, Spec{Op: OpConcat, Concat: opt})
}

// mixedSpec is the mixed-radix index spec; a nil vector still asks for
// the mixed schedule (and is rejected for n > 1).
func mixedSpec(blockLen int, radices []int) Spec {
	if radices == nil {
		radices = []int{}
	}
	return Spec{Op: OpIndex, BlockLen: blockLen, Radices: radices}
}

// runRooted compiles a one-to-all primitive uncached and runs it once:
// ranks holds one block per rank, at is the root's side.
func runRooted(e *mpsim.Engine, g *mpsim.Group, op Op, root, blockLen int, ranks *buffers.Buffers, at []byte) (*Result, error) {
	pl, err := Compile(e, g, Spec{Op: op, BlockLen: blockLen, Root: root})
	if err != nil {
		return nil, err
	}
	if op == OpGather {
		return pl.Run(pl.Memory(ranks, at))
	}
	return pl.Run(pl.Memory(at, ranks))
}

func broadcastInto(e *mpsim.Engine, g *mpsim.Group, root int, data []byte, out *buffers.Buffers) (*Result, error) {
	return runRooted(e, g, OpBroadcast, root, len(data), out, data)
}

func gatherInto(e *mpsim.Engine, g *mpsim.Group, root int, in *buffers.Buffers, out []byte) (*Result, error) {
	if in == nil {
		return runRooted(e, g, OpGather, root, 0, nil, out)
	}
	return runRooted(e, g, OpGather, root, in.BlockLen(), in, out)
}

func scatterInto(e *mpsim.Engine, g *mpsim.Group, root int, in []byte, out *buffers.Buffers) (*Result, error) {
	if out == nil {
		return runRooted(e, g, OpScatter, root, 0, nil, in)
	}
	return runRooted(e, g, OpScatter, root, out.BlockLen(), out, in)
}

// rootedSlices is the [][]byte form of the one-to-all primitives: in is
// the caller's blocks copied into a slab (nil for a broadcast of data),
// and the result is copied out of a fresh slab of one block per rank.
func rootedSlices(e *mpsim.Engine, g *mpsim.Group, op Op, root int, in *buffers.Buffers, data []byte) ([][]byte, *Result, error) {
	blockLen := len(data)
	if in != nil {
		blockLen = in.BlockLen()
	}
	out, err := buffers.New(g.Size(), 1, blockLen)
	if err != nil {
		return nil, nil, err
	}
	var res *Result
	switch op {
	case OpBroadcast:
		res, err = runRooted(e, g, op, root, blockLen, out, data)
	case OpGather:
		res, err = runRooted(e, g, op, root, blockLen, in, out.Bytes())
	default:
		res, err = runRooted(e, g, op, root, blockLen, out, in.Bytes())
	}
	if err != nil {
		return nil, nil, err
	}
	vec, err := out.ToVector()
	return vec, res, err
}

func broadcastSlices(e *mpsim.Engine, g *mpsim.Group, root int, data []byte) ([][]byte, *Result, error) {
	return rootedSlices(e, g, OpBroadcast, root, nil, data)
}

func gatherSlices(e *mpsim.Engine, g *mpsim.Group, root int, in [][]byte) ([][]byte, *Result, error) {
	fin, err := buffers.FromVector(in)
	if err != nil {
		return nil, nil, err
	}
	return rootedSlices(e, g, OpGather, root, fin, nil)
}

func scatterSlices(e *mpsim.Engine, g *mpsim.Group, root int, in [][]byte) ([][]byte, *Result, error) {
	fin, err := buffers.FromVector(in)
	if err != nil {
		return nil, nil, err
	}
	return rootedSlices(e, g, OpScatter, root, fin, nil)
}
