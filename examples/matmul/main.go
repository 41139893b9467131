// Matmul: distributed matrix multiplication using the concatenation
// operation (all-to-all broadcast), an application from Section 1.1 of
// the paper (Johnsson and Ho, "Matrix Multiplication on Boolean Cubes
// Using Generic Communication Primitives").
//
// C = A * B with A, B, C all N x N and partitioned into blocks of rows:
// processor i owns rows i*N/n .. (i+1)*N/n - 1 of every matrix. To
// compute its rows of C, a processor needs its rows of A (local) and
// ALL of B — so the processors run a concatenation on their row blocks
// of B, then multiply.
//
// The broadcast goes through the non-blocking Start(bruck.Concat, ...):
// while the allgather is in flight every processor multiplies against
// the row block of B it already owns (the partial product over its own
// t-range needs no communication), and after Wait it folds in the
// remote blocks. Communication hides behind the local flops instead of
// preceding them — the overlap the async API exists for.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"bruck"
)

const (
	n = 8  // processors
	N = 32 // matrix dimension
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run performs the distributed multiplication and verifies it against
// the serial product; the integration test drives it in-process.
func run(w io.Writer) error {
	rowsPer := N / n
	blockLen := rowsPer * N * 8
	var a, b [N][N]float64
	for r := 0; r < N; r++ {
		for c := 0; c < N; c++ {
			a[r][c] = math.Sin(float64(r*N+c)) * 2
			b[r][c] = math.Cos(float64(r-c)) + 0.5
		}
	}

	// Each processor packs its row block of B as its concat
	// contribution.
	in, err := bruck.NewConcatBuffers(n, blockLen)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		blk := in.Block(i, 0)
		idx := 0
		for r := 0; r < rowsPer; r++ {
			for c := 0; c < N; c++ {
				binary.LittleEndian.PutUint64(blk[idx:], math.Float64bits(b[i*rowsPer+r][c]))
				idx += 8
			}
		}
	}
	out, err := bruck.NewIndexBuffers(n, blockLen)
	if err != nil {
		return err
	}

	m := bruck.MustNewMachine(n, bruck.Ports(2)) // a 2-port machine
	h, err := m.Start(bruck.Concat, in, out)
	if err != nil {
		return err
	}

	// Overlapped with the broadcast: processor i's rows of C get the
	// contribution of its own row block of B (t in [i*rowsPer,
	// (i+1)*rowsPer)), which needs no communication.
	var c [N][N]float64
	for i := 0; i < n; i++ {
		for r := i * rowsPer; r < (i+1)*rowsPer; r++ {
			for col := 0; col < N; col++ {
				sum := 0.0
				for t := i * rowsPer; t < (i+1)*rowsPer; t++ {
					sum += a[r][t] * b[t][col]
				}
				c[r][col] = sum
			}
		}
	}

	rep, err := h.Wait()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "allgathered B's row blocks on %d processors (k=2, async): %s\n", n, rep)

	// After Wait: fold in the remote row blocks from the allgathered
	// output.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue // own block already folded in during the overlap
			}
			blk := out.Block(i, j)
			var bBlock [][]float64
			bBlock = make([][]float64, rowsPer)
			idx := 0
			for r := 0; r < rowsPer; r++ {
				bBlock[r] = make([]float64, N)
				for col := 0; col < N; col++ {
					bBlock[r][col] = math.Float64frombits(binary.LittleEndian.Uint64(blk[idx:]))
					idx += 8
				}
			}
			for r := i * rowsPer; r < (i+1)*rowsPer; r++ {
				for col := 0; col < N; col++ {
					sum := 0.0
					for t := 0; t < rowsPer; t++ {
						sum += a[r][j*rowsPer+t] * bBlock[t][col]
					}
					c[r][col] += sum
				}
			}
		}
	}

	// Verify against the serial product.
	worst := 0.0
	for r := 0; r < N; r++ {
		for col := 0; col < N; col++ {
			want := 0.0
			for t := 0; t < N; t++ {
				want += a[r][t] * b[t][col]
			}
			if d := math.Abs(c[r][col] - want); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-12 {
		return fmt.Errorf("matmul mismatch: worst error %g", worst)
	}
	fmt.Fprintf(w, "C = A*B (%dx%d) verified, worst element error %.2e\n", N, N, worst)
	fmt.Fprintf(w, "estimated communication time on SP-1: %.1fus\n", rep.Time(bruck.SP1)*1e6)
	fmt.Fprintln(w, "ok")
	return nil
}
