// Remap: HPF-style array redistribution from (block, *) to (cyclic, *)
// layout via the index operation, the compiler application from
// Section 1.1 of the paper ("the index operation can be used to support
// the remapping of arrays in HPF compilers").
//
// A vector of L = n * n * stride elements is distributed (block):
// processor i owns elements [i*L/n, (i+1)*L/n). The target layout is
// (cyclic) over rows of stride elements: row t goes to processor
// t mod n. Every processor must send a distinct slice of its elements
// to every other processor — an index operation.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"

	"bruck"
)

const (
	n      = 8 // processors
	rows   = n * n
	stride = 4 // elements per row
	L      = rows * stride
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run performs the redistribution and verifies the cyclic layout on
// every processor; the integration test drives it in-process.
func run(w io.Writer) error {
	// Global array for verification.
	data := make([]uint32, L)
	for i := range data {
		data[i] = uint32(i * 2718281)
	}
	rowsPer := rows / n // rows per processor in both layouts

	// Block layout: processor i owns rows [i*rowsPer, (i+1)*rowsPer).
	// In the cyclic layout, row t belongs to processor t mod n at local
	// row slot t / n. Block (i, j) therefore carries all rows of
	// processor i whose destination is processor j, in increasing row
	// order. With rows = n*n that is exactly rowsPer/n = 1 row for every
	// destination, so blocks are equal-size as the index operation
	// requires.
	in, err := bruck.NewIndexBuffers(n, rowsPer/n*stride*4)
	if err != nil {
		return err
	}
	out, err := bruck.NewIndexBuffers(n, in.BlockLen())
	if err != nil {
		return err
	}
	for t := 0; t < rows; t++ {
		// Row t is the ((t mod rowsPer) / n)-th row its owner sends to t mod n.
		blk := in.Block(t/rowsPer, t%n)[(t%rowsPer)/n*stride*4:]
		for e := 0; e < stride; e++ {
			binary.LittleEndian.PutUint32(blk[e*4:], data[t*stride+e])
		}
	}

	m := bruck.MustNewMachine(n)
	r := bruck.OptimalRadix(bruck.SP1, n, stride*4, 1, true)
	rep, err := m.Run(bruck.Index, in, out, bruck.WithRadix(r))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "remapped (block,*) -> (cyclic,*): %d rows of %d elements over %d processors\n", rows, stride, n)
	fmt.Fprintf(w, "  tuned power-of-two radix: %d, schedule: %s\n", r, rep)

	// Verify: processor j's cyclic rows are t = j, j+n, j+2n, ...;
	// out.Block(j, i) carries the rows that came from processor i, i.e. the
	// t in that list with t/rowsPer == i, ordered increasingly.
	for j := 0; j < n; j++ {
		for slot := 0; slot < rowsPer; slot++ {
			t := j + slot*n
			src := t / rowsPer
			// Position of row t within block (j, src): among rows
			// owned by src destined to j, ordered by t.
			pos := 0
			for tt := src * rowsPer; tt < t; tt++ {
				if tt%n == j {
					pos++
				}
			}
			blk := out.Block(j, src)
			for e := 0; e < stride; e++ {
				got := binary.LittleEndian.Uint32(blk[(pos*stride+e)*4:])
				if got != data[t*stride+e] {
					return fmt.Errorf("processor %d row %d element %d: got %d, want %d",
						j, t, e, got, data[t*stride+e])
				}
			}
		}
	}
	fmt.Fprintln(w, "cyclic layout verified on every processor")
	fmt.Fprintln(w, "ok")
	return nil
}
