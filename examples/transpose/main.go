// Transpose: distributed matrix transposition via the index operation,
// the canonical application from Section 1.1 of the paper.
//
// An N x N matrix of float64 is partitioned into blocks of rows:
// processor i owns rows i*N/n .. (i+1)*N/n - 1. Transposing the matrix
// requires every processor to exchange an (N/n) x (N/n) tile with every
// other processor — exactly the index communication pattern.
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
	N = 32 // matrix dimension; rowsPer = N/n rows per processor
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run transposes the distributed matrix and byte-checks every element
// against the serial transpose; the integration test drives it
// in-process.
func run(w io.Writer) error {
	rowsPer := N / n
	// Global matrix for verification; processor i holds rows
	// [i*rowsPer, (i+1)*rowsPer).
	var a [N][N]float64
	for r := 0; r < N; r++ {
		for c := 0; c < N; c++ {
			a[r][c] = float64(r*N+c) + 0.25
		}
	}

	// Build the index input: block (i, j) is the tile of processor i for
	// processor j: rows of i, columns [j*rowsPer, (j+1)*rowsPer).
	tileLen := rowsPer * rowsPer * 8
	in, err := bruck.NewIndexBuffers(n, tileLen)
	if err != nil {
		return err
	}
	out, err := bruck.NewIndexBuffers(n, tileLen)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for r := 0; r < rowsPer; r++ {
				for c := 0; c < rowsPer; c++ {
					v := a[i*rowsPer+r][j*rowsPer+c]
					binary.LittleEndian.PutUint64(in.Block(i, j)[(r*rowsPer+c)*8:], math.Float64bits(v))
				}
			}
		}
	}

	m := bruck.MustNewMachine(n)
	rep, err := m.Run(bruck.Index, in, out, bruck.WithRadix(bruck.OptimalRadix(bruck.SP1, n, tileLen, 1, false)))
	if err != nil {
		return err
	}

	// Reassemble: block (i, j) now holds the tile from processor j, which
	// contains a[j*rowsPer+r][i*rowsPer+c]. Transposing each received tile
	// locally yields rows of the transposed matrix.
	var at [N][N]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for r := 0; r < rowsPer; r++ {
				for c := 0; c < rowsPer; c++ {
					v := math.Float64frombits(binary.LittleEndian.Uint64(out.Block(i, j)[(r*rowsPer+c)*8:]))
					// v = a[j*rowsPer+r][i*rowsPer+c]; it belongs at
					// at[i*rowsPer+c][j*rowsPer+r].
					at[i*rowsPer+c][j*rowsPer+r] = v
				}
			}
		}
	}

	for r := 0; r < N; r++ {
		for c := 0; c < N; c++ {
			if at[r][c] != a[c][r] {
				return fmt.Errorf("transpose wrong at (%d,%d): %g != %g", r, c, at[r][c], a[c][r])
			}
		}
	}
	fmt.Fprintf(w, "transposed a %dx%d matrix across %d processors: %s\n", N, N, n, rep)
	fmt.Fprintf(w, "estimated time on SP-1: %.1fus\n", rep.Time(bruck.SP1)*1e6)
	fmt.Fprintln(w, "ok")
	return nil
}
