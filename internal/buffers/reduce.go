package buffers

// Reduction kernels and typed element views for the reduction
// collectives (ReduceScatter, AllReduce). A collective moves bytes; a
// reduction additionally combines them, so the plan executor applies a
// CombineFunc where a plain collective would copy. The built-in kernels
// cover sum/min/max over the four fixed-width element types, encoded
// little-endian: a kernel reduces aligned slabs on a little-endian host
// in place as native elements and any other slab a byte at a time, with
// identical results on every host; arbitrary user reductions plug in as
// a raw CombineFunc over whole blocks.
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
	"strings"
	"unsafe"
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
			store(blk[e*4:], int32(v))
		case Int64:
			store(blk[e*8:], int64(v))
		case Float32:
			store(blk[e*4:], float32(v))
		case Float64:
			store(blk[e*8:], float64(v))
		}
	}
}

// CombineFunc combines src into dst elementwise: dst[i] = dst[i] op
// src[i] for every element. The two slices always have equal length and
// never overlap; implementations must not retain either slice.
type CombineFunc func(dst, src []byte)

// Kernel returns the built-in CombineFunc for one (op, type) pair: one
// of twelve package-level function values, the same one on every call.
// The slabs handed to the kernel must hold whole elements (length
// divisible by t.Size()): the reduction entry points validate that.
func Kernel(op ReduceOp, t DataType) (CombineFunc, error) {
	if op < Sum || op > Max || t < Int32 || t > Float64 {
		return nil, fmt.Errorf("buffers: no kernel for %v over %v", op, t)
	}
	return kernels[op][t], nil
}

var kernels = [3][4]CombineFunc{
	Sum: {combineSum[int32], combineSum[int64], combineSum[float32], combineSum[float64]},
	Min: {combineMin[int32], combineMin[int64], combineMin[float32], combineMin[float64]},
	Max: {combineMax[int32], combineMax[int64], combineMax[float32], combineMax[float64]},
}

type element interface {
	int32 | int64 | float32 | float64
}

// The three loop bodies, one instantiation per element type. min and max
// are the built-ins: over floats a NaN propagates and -0 < +0, which a
// comparison and an assignment would not give.

func combineSum[T element](dst, src []byte) {
	d, s, ok := views[T](dst, src)
	if !ok {
		bytewise[T](dst, src, Sum)
		return
	}
	for i, v := range s[:len(d)] {
		d[i] += v
	}
}

func combineMin[T element](dst, src []byte) {
	d, s, ok := views[T](dst, src)
	if !ok {
		bytewise[T](dst, src, Min)
		return
	}
	for i, v := range s[:len(d)] {
		d[i] = min(d[i], v)
	}
}

func combineMax[T element](dst, src []byte) {
	d, s, ok := views[T](dst, src)
	if !ok {
		bytewise[T](dst, src, Max)
		return
	}
	for i, v := range s[:len(d)] {
		d[i] = max(d[i], v)
	}
}

// littleEndian: the host's memory layout of an element is the wire's.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// views returns the whole elements of dst and of src as T in place, or
// ok false where memory is not the wire layout: on a big-endian host, or
// when either slab is not aligned to the element.
func views[T element](dst, src []byte) (d, s []T, ok bool) {
	size := unsafe.Sizeof(*new(T))
	dp, sp := unsafe.Pointer(unsafe.SliceData(dst)), unsafe.Pointer(unsafe.SliceData(src))
	if !littleEndian || (uintptr(dp)|uintptr(sp))%size != 0 {
		return nil, nil, false
	}
	return unsafe.Slice((*T)(dp), len(dst)/int(size)), unsafe.Slice((*T)(sp), len(src)/int(size)), true
}

// bytewise is the path of the slabs views declines: every element is
// loaded and stored a byte at a time in the wire layout, so the result
// is the native loop's bit for bit on any host at any address.
func bytewise[T element](dst, src []byte, op ReduceOp) {
	size := int(unsafe.Sizeof(*new(T)))
	for i := 0; i+size <= len(dst); i += size {
		a, b := load[T](dst[i:]), load[T](src[i:])
		switch op {
		case Sum:
			a += b
		case Min:
			a = min(a, b)
		case Max:
			a = max(a, b)
		}
		store(dst[i:], a)
	}
}

// load and store move one little-endian element between a slab and a
// value, through the unsigned integer of its width.
func load[T element](b []byte) (v T) {
	if unsafe.Sizeof(v) == 4 {
		*(*uint32)(unsafe.Pointer(&v)) = binary.LittleEndian.Uint32(b)
	} else {
		*(*uint64)(unsafe.Pointer(&v)) = binary.LittleEndian.Uint64(b)
	}
	return v
}

func store[T element](b []byte, v T) {
	if unsafe.Sizeof(v) == 4 {
		binary.LittleEndian.PutUint32(b, *(*uint32)(unsafe.Pointer(&v)))
	} else {
		binary.LittleEndian.PutUint64(b, *(*uint64)(unsafe.Pointer(&v)))
	}
}

// Put encodes a typed vector into a byte slab in the little-endian
// layout the built-in kernels reduce over; dst must hold exactly
// len(vals) elements.
func Put[T element](dst []byte, vals []T) {
	for i, v := range vals {
		store(dst[i*int(unsafe.Sizeof(v)):], v)
	}
}

// Get decodes a slab as typed elements into a fresh slice (a slab is
// transport memory, not a place to alias).
func Get[T element](src []byte) []T {
	out := make([]T, len(src)/int(unsafe.Sizeof(*new(T))))
	for i := range out {
		out[i] = load[T](src[i*int(unsafe.Sizeof(out[i])):])
	}
	return out
}
