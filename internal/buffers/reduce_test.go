package buffers

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestKernelInt32(t *testing.T) {
	dst := make([]byte, 12)
	src := make([]byte, 12)
	Put(dst, []int32{5, -3, 7})
	Put(src, []int32{2, -4, 9})
	for _, tc := range []struct {
		op   ReduceOp
		want []int32
	}{
		{Sum, []int32{7, -7, 16}},
		{Min, []int32{2, -4, 7}},
		{Max, []int32{5, -3, 9}},
	} {
		d := append([]byte(nil), dst...)
		fn, err := Kernel(tc.op, Int32)
		if err != nil {
			t.Fatal(err)
		}
		fn(d, src)
		got := Get[int32](d)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%v int32: element %d = %d, want %d", tc.op, i, got[i], tc.want[i])
			}
		}
	}
}

func TestKernelAllTypesRoundTrip(t *testing.T) {
	// Integer-valued data is exactly representable in every type, so sum
	// over any type must agree with the integer sum.
	vals := []int{3, -8, 0, 12, 7, -1}
	for _, typ := range []DataType{Int32, Int64, Float32, Float64} {
		sz := typ.Size()
		dst := make([]byte, len(vals)*sz)
		src := make([]byte, len(vals)*sz)
		encode := func(b []byte, v []int) {
			for i, x := range v {
				switch typ {
				case Int32:
					Put(b[i*4:], []int32{int32(x)})
				case Int64:
					Put(b[i*8:], []int64{int64(x)})
				case Float32:
					Put(b[i*4:], []float32{float32(x)})
				case Float64:
					Put(b[i*8:], []float64{float64(x)})
				}
			}
		}
		encode(dst, vals)
		encode(src, vals)
		fn, err := Kernel(Sum, typ)
		if err != nil {
			t.Fatal(err)
		}
		fn(dst, src)
		want := make([]byte, len(dst))
		doubled := make([]int, len(vals))
		for i, v := range vals {
			doubled[i] = 2 * v
		}
		encode(want, doubled)
		if !bytes.Equal(dst, want) {
			t.Errorf("%v sum: got % x, want % x", typ, dst, want)
		}
	}
}

func TestKernelFloatSpecials(t *testing.T) {
	fn, err := Kernel(Max, Float64)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 16)
	src := make([]byte, 16)
	Put(dst, []float64{math.Inf(-1), 1.5})
	Put(src, []float64{2.25, math.Inf(1)})
	fn(dst, src)
	got := Get[float64](dst)
	if got[0] != 2.25 || !math.IsInf(got[1], 1) {
		t.Errorf("float64 max with infinities: %v", got)
	}
}

func TestKernelEmptySlab(t *testing.T) {
	// Kernels are no-ops on empty slabs (the executor additionally
	// guards user CombineFuncs from ever seeing one).
	for _, typ := range []DataType{Int32, Int64, Float32, Float64} {
		fn, err := Kernel(Sum, typ)
		if err != nil {
			t.Fatal(err)
		}
		fn(nil, nil) // must not panic
		fn([]byte{}, []byte{})
	}
}

func TestKernelUnknown(t *testing.T) {
	if _, err := Kernel(ReduceOp(99), Int32); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := Kernel(Sum, DataType(99)); err == nil {
		t.Error("unknown type accepted")
	}
	if DataType(99).Size() != 0 {
		t.Error("unknown type has a size")
	}
}

func TestTypedViewsRoundTrip(t *testing.T) {
	i32 := []int32{1, -2, 1 << 30}
	b := make([]byte, 12)
	Put(b, i32)
	if got := Get[int32](b); got[0] != 1 || got[1] != -2 || got[2] != 1<<30 {
		t.Errorf("int32 round trip: %v", got)
	}
	i64 := []int64{-1 << 40, 7}
	b = make([]byte, 16)
	Put(b, i64)
	if got := Get[int64](b); got[0] != -1<<40 || got[1] != 7 {
		t.Errorf("int64 round trip: %v", got)
	}
	f32 := []float32{1.5, -0.25}
	b = make([]byte, 8)
	Put(b, f32)
	if got := Get[float32](b); got[0] != 1.5 || got[1] != -0.25 {
		t.Errorf("float32 round trip: %v", got)
	}
	f64 := []float64{math.Pi}
	b = make([]byte, 8)
	Put(b, f64)
	if got := Get[float64](b); got[0] != math.Pi {
		t.Errorf("float64 round trip: %v", got)
	}
}

func TestReduceStrings(t *testing.T) {
	if Sum.String() != "sum" || Min.String() != "min" || Max.String() != "max" {
		t.Error("op strings wrong")
	}
	if Int32.String() != "int32" || Float64.String() != "float64" {
		t.Error("type strings wrong")
	}
}

// TestParseKernelRoundTrip: ParseKernel inverts the two String methods
// for every built-in pair and names what it cannot parse.
func TestParseKernelRoundTrip(t *testing.T) {
	for op := Sum; op <= Max; op++ {
		for typ := Int32; typ <= Float64; typ++ {
			gotOp, gotTyp, err := ParseKernel(op.String() + ":" + typ.String())
			if err != nil || gotOp != op || gotTyp != typ {
				t.Errorf("ParseKernel(%v:%v) = %v, %v, %v", op, typ, gotOp, gotTyp, err)
			}
		}
	}
	for in, want := range map[string]string{
		"sum":       `buffers: bad kernel "sum", want op:type (e.g. sum:float32)`,
		"avg:int32": `buffers: unknown reduce op "avg"`,
		"sum:int13": `buffers: unknown element type "int13"`,
	} {
		if _, _, err := ParseKernel(in); err == nil || err.Error() != want {
			t.Errorf("ParseKernel(%q) error %v, want %q", in, err, want)
		}
	}
}

// TestFillIsOrderIndependentUnderEveryKernel: the element fill's values
// combine to the same bits in any order, which is what lets a serial
// fold serve as the reference of every reduction schedule.
func TestFillIsOrderIndependentUnderEveryKernel(t *testing.T) {
	const ranks, size = 16, 64
	for op := Sum; op <= Max; op++ {
		for typ := Int32; typ <= Float64; typ++ {
			kernel, err := Kernel(op, typ)
			if err != nil {
				t.Fatal(err)
			}
			fold := func(order func(i int) int) []byte {
				acc, blk := make([]byte, size), make([]byte, size)
				typ.Fill(acc, order(0), 3)
				for i := 1; i < ranks; i++ {
					typ.Fill(blk, order(i), 3)
					kernel(acc, blk)
				}
				return acc
			}
			up := fold(func(i int) int { return i })
			down := fold(func(i int) int { return ranks - 1 - i })
			if !bytes.Equal(up, down) {
				t.Errorf("%v over %v: fold order changes the result", op, typ)
			}
		}
	}
}

// TestBuiltinKernelsContract holds each of the twelve built-in kernels
// to the CombineFunc rules at the top of reduce.go: a call leaves src
// as it found it and allocates nothing — src is a pooled transport
// buffer, recycled after each. That it keeps nothing which changes the
// next call is TestBuiltinKernelsDifferential's: a kernel is one static
// function, and every call there follows calls on other slabs.
func TestBuiltinKernelsContract(t *testing.T) {
	const size = 64
	for op := Sum; op <= Max; op++ {
		for typ := Int32; typ <= Float64; typ++ {
			kernel, err := Kernel(op, typ)
			if err != nil {
				t.Fatal(err)
			}
			dst, src := make([]byte, size), make([]byte, size)
			typ.Fill(dst, 1, 0)
			typ.Fill(src, 2, 0)
			before := bytes.Clone(src)
			if allocs := testing.AllocsPerRun(10, func() { kernel(dst, src) }); allocs != 0 {
				t.Errorf("%v over %v allocates %v times a call, want 0", op, typ, allocs)
			}
			if !bytes.Equal(src, before) {
				t.Errorf("%v over %v writes src", op, typ)
			}
			// Kernel hands out one static function per pair: asking again
			// builds nothing and returns the function it returned before.
			fresh, _ := Kernel(op, typ)
			if reflect.ValueOf(fresh).Pointer() != reflect.ValueOf(kernel).Pointer() {
				t.Errorf("%v over %v: two Kernel calls return different functions", op, typ)
			}
			if allocs := testing.AllocsPerRun(10, func() { fresh, _ = Kernel(op, typ) }); allocs != 0 {
				t.Errorf("Kernel(%v, %v) allocates %v times a call, want 0", op, typ, allocs)
			}
		}
	}
}

// TestBuiltinKernelsDifferential runs the twelve kernels down both of
// their paths against one reference. Slabs of 0 to 67 elements start at
// an aligned address or one byte past it, dst and src independently: on
// a little-endian host the aligned pair takes the native loop and the
// other three the byte-wise one (asserted through views, so neither path
// can go unexecuted), and both must produce, bit for bit, the fold of
// the decoded elements (Get and Put) under the language's own +, min
// and max. The eight
// special values meet in all 64 pairs: integer sums wrap, and over floats
// a NaN on either side propagates and -0 orders below +0 — a min or max
// written as a comparison and an assignment fails here.
func TestBuiltinKernelsDifferential(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	for op := Sum; op <= Max; op++ {
		differential(t, op, Int32, []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, 1 << 30, -(1 << 30)})
		differential(t, op, Int64, []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, 1 << 62, -(1 << 62)})
		differential(t, op, Float32, []float32{0, float32(negZero), float32(nan), float32(inf), float32(-inf), 1.5, -2.25, math.MaxFloat32})
		differential(t, op, Float64, []float64{0, negZero, nan, inf, -inf, 1.5, -2.25, math.MaxFloat64})
	}
}

func differential[T element](t *testing.T, op ReduceOp, typ DataType, specials []T) {
	kernel, err := Kernel(op, typ)
	if err != nil {
		t.Fatal(err)
	}
	size, m := typ.Size(), len(specials)
	for n := 0; n <= 67; n++ {
		a, b := make([]T, n), make([]T, n)
		for i := range a {
			a[i], b[i] = specials[i%m], specials[i/m%m]
		}
		want := make([]byte, n*size)
		fold := make([]T, n)
		for i := range fold {
			switch op {
			case Sum:
				fold[i] = a[i] + b[i]
			case Min:
				fold[i] = min(a[i], b[i])
			case Max:
				fold[i] = max(a[i], b[i])
			}
		}
		Put(want, fold)
		for _, at := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			tag := fmt.Sprintf("%v over %v, %d elements, dst at +%d, src at +%d", op, typ, n, at[0], at[1])
			// A 16-byte-or-larger allocation is at least 8-byte aligned.
			dst, src := make([]byte, n*size+16)[at[0]:][:n*size], make([]byte, n*size+16)[at[1]:][:n*size]
			Put(dst, a)
			Put(src, b)
			if _, _, native := views[T](dst, src); native != (littleEndian && at == [2]int{0, 0}) {
				t.Fatalf("%s: native views taken = %v", tag, native)
			}
			before := bytes.Clone(src)
			kernel(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s:\n got %v\nwant %v", tag, Get[T](dst), fold)
			}
			if !bytes.Equal(src, before) {
				t.Errorf("%s: the kernel writes src", tag)
			}
		}
	}
}
