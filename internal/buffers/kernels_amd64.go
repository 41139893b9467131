//go:build !race

package buffers

// The Sum kernels run in AVX2 where the CPU and the OS support it. Each
// assembly loop (kernels_amd64.s) adds the whole 32-byte vectors of src
// into dst lane by lane, and its kernel hands the rest of the slab,
// shorter than one vector, to the Go loop. A lane add is the scalar
// d[i] += v (IEEE add, integer wraparound), so the bits are the Go
// loop's. Under -race none of this is built: the race detector and
// checkptr then see every combine through the Go loops.

//go:noescape
func sumInt32x8(dst, src []byte)

//go:noescape
func sumInt64x4(dst, src []byte)

//go:noescape
func sumFloat32x8(dst, src []byte)

//go:noescape
func sumFloat64x4(dst, src []byte)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves its
// registers.
func hasAVX2() bool

func init() {
	if hasAVX2() {
		vectorSum = [4]CombineFunc{Int32: sumInt32, Int64: sumInt64, Float32: sumFloat32, Float64: sumFloat64}
		kernels[Sum] = vectorSum
	}
}

func sumInt32(dst, src []byte) {
	n := len(dst) &^ 31
	sumInt32x8(dst[:n], src[:n])
	combineSum[int32](dst[n:], src[n:])
}

func sumInt64(dst, src []byte) {
	n := len(dst) &^ 31
	sumInt64x4(dst[:n], src[:n])
	combineSum[int64](dst[n:], src[n:])
}

func sumFloat32(dst, src []byte) {
	n := len(dst) &^ 31
	sumFloat32x8(dst[:n], src[:n])
	combineSum[float32](dst[n:], src[n:])
}

func sumFloat64(dst, src []byte) {
	n := len(dst) &^ 31
	sumFloat64x4(dst[:n], src[:n])
	combineSum[float64](dst[n:], src[n:])
}
