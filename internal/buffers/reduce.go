package buffers

// Reduction kernels and typed element views for the reduction
// collectives (ReduceScatter, AllReduce). A collective moves bytes; a
// reduction additionally combines them, so the plan executor applies a
// CombineFunc where a plain collective would copy. The built-in kernels
// cover sum/min/max over the four fixed-width element types, decoding
// and re-encoding little-endian so results are identical on every host;
// arbitrary user reductions plug in as a raw CombineFunc over whole
// blocks.
//
// Kernel-safety rules (see also package collective's plan lifecycle
// documentation; TestBuiltinKernelsContract holds the twelve built-in
// kernels to them):
//
//   - A CombineFunc must treat dst and src as non-overlapping slices of
//     equal length, write only dst, and must not retain either slice —
//     src is a pooled transport buffer that is recycled after the call.
//   - The executor never invokes a kernel on an empty slab: zero-length
//     blocks travel as empty messages and skip the combine entirely.
//   - Reductions must be associative and commutative for the result to
//     be independent of the schedule. Each compiled plan applies its
//     combines in a fixed deterministic order, so repeated executions
//     of one plan are bit-identical — but different algorithms (ring,
//     recursive halving, Bruck) associate differently, which matters
//     for floating-point sums at the last ulp.

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// DataType names a fixed-width element type of a built-in reduction
// kernel. Elements are encoded little-endian.
type DataType int

const (
	Int32 DataType = iota
	Int64
	Float32
	Float64
)

// Size returns the element width in bytes.
func (t DataType) Size() int {
	switch t {
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	default:
		return 0
	}
}

func (t DataType) String() string {
	switch t {
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("DataType(%d)", int(t))
	}
}

// ReduceOp names a built-in elementwise reduction.
type ReduceOp int

const (
	Sum ReduceOp = iota
	Min
	Max
)

func (op ReduceOp) String() string {
	switch op {
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// ParseKernel parses a kernel name of the form op:type, e.g.
// "sum:float32": the inverse of the two String methods.
func ParseKernel(s string) (ReduceOp, DataType, error) {
	opName, typName, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("buffers: bad kernel %q, want op:type (e.g. sum:float32)", s)
	}
	op, typ := Sum, Int32
	for op <= Max && op.String() != opName {
		op++
	}
	for typ <= Float64 && typ.String() != typName {
		typ++
	}
	switch {
	case op > Max:
		return 0, 0, fmt.Errorf("buffers: unknown reduce op %q", opName)
	case typ > Float64:
		return 0, 0, fmt.Errorf("buffers: unknown element type %q", typName)
	}
	return op, typ, nil
}

// Fill writes deterministic small integer-valued elements of type t
// into blk, seeded by the block's (rank, block) position. They are
// exactly representable in every type and so are their sums, which
// makes a reduction over them bit-identical whatever the combine order:
// a serial fold is an exact reference for any schedule.
func (t DataType) Fill(blk []byte, rank, block int) {
	for e := 0; e < len(blk)/t.Size(); e++ {
		v := (rank*5+block*3+e*7)%16 - 8
		switch t {
		case Int32:
			PutInt32s(blk[e*4:], []int32{int32(v)})
		case Int64:
			PutInt64s(blk[e*8:], []int64{int64(v)})
		case Float32:
			PutFloat32s(blk[e*4:], []float32{float32(v)})
		case Float64:
			PutFloat64s(blk[e*8:], []float64{float64(v)})
		}
	}
}

// CombineFunc combines src into dst elementwise: dst[i] = dst[i] op
// src[i] for every element. The two slices always have equal length and
// never overlap; implementations must not retain either slice.
type CombineFunc func(dst, src []byte)

// Kernel returns the built-in CombineFunc for one (op, type) pair. The
// slabs handed to the kernel must hold whole elements (length divisible
// by t.Size()); the reduction entry points validate that at compile
// time.
func Kernel(op ReduceOp, t DataType) (CombineFunc, error) {
	switch t {
	case Int32:
		switch op {
		case Sum:
			return combineInt32(func(a, b int32) int32 { return a + b }), nil
		case Min:
			return combineInt32(func(a, b int32) int32 { return min(a, b) }), nil
		case Max:
			return combineInt32(func(a, b int32) int32 { return max(a, b) }), nil
		}
	case Int64:
		switch op {
		case Sum:
			return combineInt64(func(a, b int64) int64 { return a + b }), nil
		case Min:
			return combineInt64(func(a, b int64) int64 { return min(a, b) }), nil
		case Max:
			return combineInt64(func(a, b int64) int64 { return max(a, b) }), nil
		}
	case Float32:
		switch op {
		case Sum:
			return combineFloat32(func(a, b float32) float32 { return a + b }), nil
		case Min:
			return combineFloat32(func(a, b float32) float32 { return min(a, b) }), nil
		case Max:
			return combineFloat32(func(a, b float32) float32 { return max(a, b) }), nil
		}
	case Float64:
		switch op {
		case Sum:
			return combineFloat64(func(a, b float64) float64 { return a + b }), nil
		case Min:
			return combineFloat64(func(a, b float64) float64 { return min(a, b) }), nil
		case Max:
			return combineFloat64(func(a, b float64) float64 { return max(a, b) }), nil
		}
	}
	return nil, fmt.Errorf("buffers: no kernel for %v over %v", op, t)
}

func combineInt32(f func(a, b int32) int32) CombineFunc {
	return func(dst, src []byte) {
		for i := 0; i+4 <= len(dst); i += 4 {
			a := int32(binary.LittleEndian.Uint32(dst[i:]))
			b := int32(binary.LittleEndian.Uint32(src[i:]))
			binary.LittleEndian.PutUint32(dst[i:], uint32(f(a, b)))
		}
	}
}

func combineInt64(f func(a, b int64) int64) CombineFunc {
	return func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(f(a, b)))
		}
	}
}

func combineFloat32(f func(a, b float32) float32) CombineFunc {
	return func(dst, src []byte) {
		for i := 0; i+4 <= len(dst); i += 4 {
			a := math.Float32frombits(binary.LittleEndian.Uint32(dst[i:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
			binary.LittleEndian.PutUint32(dst[i:], math.Float32bits(f(a, b)))
		}
	}
}

func combineFloat64(f func(a, b float64) float64) CombineFunc {
	return func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(f(a, b)))
		}
	}
}

// Typed element views: encode a typed vector into a byte slab and view
// a slab back as typed elements, in the little-endian layout the
// built-in kernels reduce over. The Put variants require dst to hold
// exactly len(vals) elements; the decoding variants copy (a slab is
// transport memory, not a place to alias).

// PutInt32s encodes vals into dst.
func PutInt32s(dst []byte, vals []int32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
	}
}

// Int32s decodes src as int32 elements.
func Int32s(src []byte) []int32 {
	out := make([]int32, len(src)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
	return out
}

// PutInt64s encodes vals into dst.
func PutInt64s(dst []byte, vals []int64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
}

// Int64s decodes src as int64 elements.
func Int64s(src []byte) []int64 {
	out := make([]int64, len(src)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return out
}

// PutFloat32s encodes vals into dst.
func PutFloat32s(dst []byte, vals []float32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(v))
	}
}

// Float32s decodes src as float32 elements.
func Float32s(src []byte) []float32 {
	out := make([]float32, len(src)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
	return out
}

// PutFloat64s encodes vals into dst.
func PutFloat64s(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// Float64s decodes src as float64 elements.
func Float64s(src []byte) []float64 {
	out := make([]float64, len(src)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return out
}
