// Quickstart: run the two all-to-all operations of the paper on a
// simulated 8-processor machine and print their schedule measures.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"bruck"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes both collectives and their byte-level verifications,
// writing the narrative to w; the in-process test drives it directly.
func run(w io.Writer) error {
	const n = 8
	m := bruck.MustNewMachine(n) // one-port model

	// --- Index (all-to-all personalized communication) ---------------
	// Processor i starts with blocks B[i,0..n-1]; afterwards processor
	// i holds B[0,i], ..., B[n-1,i]. The block matrix is copied into one
	// contiguous slab, which the schedule then works on in place.
	blocks := make([][][]byte, n)
	for i := range blocks {
		blocks[i] = make([][]byte, n)
		for j := range blocks[i] {
			blocks[i][j] = []byte(fmt.Sprintf("B[%d,%d]", i, j))
		}
	}
	in, err := bruck.FromMatrix(blocks)
	if err != nil {
		return err
	}
	out, err := bruck.NewIndexBuffers(n, in.BlockLen())
	if err != nil {
		return err
	}
	rep, err := m.Run(bruck.Index, in, out, bruck.WithRadix(2))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "index with r=2 (round-optimal):", rep)
	fmt.Fprintf(w, "  processor 3 now holds: %s %s ... %s\n", out.Block(3, 0), out.Block(3, 1), out.Block(3, n-1))

	// The same operation tuned for volume instead of rounds, verified on
	// the result copied back out as slices:
	repN, err := m.Run(bruck.Index, in, out, bruck.WithRadix(n))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "index with r=n (volume-optimal):", repN)
	fmt.Fprintf(w, "  model times on the SP-1 profile: r=2 %.1fus, r=n %.1fus\n",
		rep.Time(bruck.SP1)*1e6, repN.Time(bruck.SP1)*1e6)
	res := out.ToMatrix()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(res[i][j], blocks[j][i]) {
				return fmt.Errorf("verification failed at out[%d][%d]", i, j)
			}
		}
	}

	// --- Concatenation (all-to-all broadcast) -------------------------
	contributions := make([][]byte, n)
	for i := range contributions {
		contributions[i] = []byte(fmt.Sprintf("B[%d]", i))
	}
	cin, err := bruck.FromVector(contributions)
	if err != nil {
		return err
	}
	all, err := bruck.NewIndexBuffers(n, cin.BlockLen())
	if err != nil {
		return err
	}
	crep, err := m.Run(bruck.Concat, cin, all)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "concatenation (circulant):", crep)
	fmt.Fprintf(w, "  processor 5 now holds: %s %s ... %s\n", all.Block(5, 0), all.Block(5, 1), all.Block(5, n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(all.Block(i, j), contributions[j]) {
				return fmt.Errorf("verification failed at all[%d][%d]", i, j)
			}
		}
	}
	fmt.Fprintln(w, "ok")
	return nil
}
