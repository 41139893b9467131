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
	return pl.Execute(in, out)
}

func runRagged(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Ragged, s Spec) (*Result, error) {
	s.Layout = in.Layout()
	pl, err := Compile(e, g, s)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteV(in, out)
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
