// FFT: a distributed FFT whose inter-processor data exchanges are
// index operations, one of the applications cited in Section 1.1 of
// the paper (Johnsson et al., "Computing Fast Fourier Transforms on
// Boolean Cubes and Related Networks").
//
// The transform of length L = n*n is computed with the transpose
// algorithm: viewing the signal as an n x n matrix X[r][c] = x[r*n+c]
// with processor r owning row r,
//
//  1. transpose       — index operation (communication),
//  2. local n-point FFTs over the original row index,
//  3. twiddle factors — local,
//  4. transpose       — index operation (communication),
//  5. local n-point FFTs over the original column index.
//
// Both transposes go through the non-blocking Start(bruck.Index, ...),
// and the local work that does not depend on the exchanged data runs
// while the network works — the twiddle table (a pure function of
// indices) overlaps transpose 1, and the direct-DFT reference spectrum
// (a pure function of the input) overlaps transpose 2. That is the
// overlap the paper's C1*beta start-up term prices: communication time
// hidden behind computation instead of added to it.
//
// The result is verified against the direct O(L^2) DFT.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"math/cmplx"
	"os"

	"bruck"
)

const (
	n            = 8  // processors; transform length is n*n = 64
	complexBytes = 16 // wire size of one complex128
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run computes the distributed FFT and verifies it against the direct
// DFT; the integration test drives it in-process.
func run(w io.Writer) error {
	const L = n * n
	// Input signal; processor r owns x[r*n .. r*n+n-1].
	x := make([]complex128, L)
	for i := range x {
		x[i] = complex(math.Sin(0.1*float64(i))+0.5, math.Cos(0.3*float64(i)))
	}
	local := make([][]complex128, n)
	for r := 0; r < n; r++ {
		local[r] = append([]complex128(nil), x[r*n:(r+1)*n]...)
	}

	m := bruck.MustNewMachine(n)

	// Step 1: transpose, so processor c holds y_c[r] = x[r*n + c].
	// Submitted asynchronously; the twiddle table is computed while the
	// exchange runs.
	wait1, err := transposeAsync(m, local)
	if err != nil {
		return err
	}
	twiddle := make([][]complex128, n) // twiddle[c][u] = e^{-2pi i u c / L}
	for c := 0; c < n; c++ {
		twiddle[c] = make([]complex128, n)
		for u := 0; u < n; u++ {
			twiddle[c][u] = cmplx.Exp(complex(0, -2*math.Pi*float64(u*c)/float64(L)))
		}
	}
	local, rep1, err := wait1()
	if err != nil {
		return err
	}

	// Step 2: local FFT over r: processor c now holds
	// Y[u][c] = sum_r y_c[r] e^{-2pi i u r / n} at local index u.
	for c := 0; c < n; c++ {
		fft(local[c])
	}

	// Step 3: twiddle Z[u][c] = Y[u][c] * e^{-2pi i u c / L}.
	for c := 0; c < n; c++ {
		for u := 0; u < n; u++ {
			local[c][u] *= twiddle[c][u]
		}
	}

	// Step 4: transpose, so processor u holds Z[u][c] over c. The
	// direct-DFT reference spectrum depends only on x, so it overlaps
	// this exchange.
	wait2, err := transposeAsync(m, local)
	if err != nil {
		return err
	}
	want := make([]complex128, L)
	for k := 0; k < L; k++ {
		for t := 0; t < L; t++ {
			want[k] += x[t] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*t)/float64(L)))
		}
	}
	local, rep2, err := wait2()
	if err != nil {
		return err
	}

	// Step 5: local FFT over c: X[u + v*n] = sum_c Z[u][c]
	// e^{-2pi i v c / n} lands on processor u at local index v.
	for u := 0; u < n; u++ {
		fft(local[u])
	}

	got := make([]complex128, L)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			got[u+v*n] = local[u][v]
		}
	}

	worst := 0.0
	for k := 0; k < L; k++ {
		if d := cmplx.Abs(got[k] - want[k]); d > worst {
			worst = d
		}
	}
	if worst > 1e-8 {
		return fmt.Errorf("FFT mismatch: worst coefficient error %g", worst)
	}
	fmt.Fprintf(w, "distributed %d-point FFT on %d processors (async transposes)\n", L, n)
	fmt.Fprintf(w, "  transpose 1: %s\n", rep1)
	fmt.Fprintf(w, "  transpose 2: %s\n", rep2)
	fmt.Fprintf(w, "  worst coefficient error vs direct DFT: %.2e\n", worst)
	fmt.Fprintln(w, "ok")
	return nil
}

// transposeAsync submits the index-operation transpose without
// blocking and returns a wait function that finishes the exchange and
// decodes the result, so the caller can overlap independent local work
// between submit and wait. The flat buffers belong to the running
// operation until the wait function returns.
func transposeAsync(m *bruck.Machine, local [][]complex128) (func() ([][]complex128, *bruck.Report, error), error) {
	in, err := bruck.NewIndexBuffers(n, complexBytes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			putComplex(in.Block(i, j), local[i][j])
		}
	}
	out, err := bruck.NewIndexBuffers(n, complexBytes)
	if err != nil {
		return nil, err
	}
	h, err := m.Start(bruck.Index, in, out, bruck.WithRadix(2))
	if err != nil {
		return nil, err
	}
	return func() ([][]complex128, *bruck.Report, error) {
		rep, err := h.Wait()
		if err != nil {
			return nil, nil, err
		}
		res := make([][]complex128, n)
		for i := 0; i < n; i++ {
			res[i] = make([]complex128, n)
			for j := 0; j < n; j++ {
				res[i][j] = getComplex(out.Block(i, j))
			}
		}
		return res, rep, nil
	}, nil
}

// fft is an in-place radix-2 Cooley-Tukey FFT; len(a) must be a power
// of two.
func fft(a []complex128) {
	L := len(a)
	if L <= 1 {
		return
	}
	for i, j := 0, 0; i < L; i++ {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
		mask := L >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	for size := 2; size <= L; size <<= 1 {
		half := size / 2
		step := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < L; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= step
			}
		}
	}
}

func putComplex(buf []byte, v complex128) {
	binary.LittleEndian.PutUint64(buf, math.Float64bits(real(v)))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
}

func getComplex(buf []byte) complex128 {
	return complex(
		math.Float64frombits(binary.LittleEndian.Uint64(buf)),
		math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
	)
}
