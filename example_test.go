package bruck_test

import (
	"fmt"
	"strings"

	"bruck"
)

// Run executes one operation. The index exchanges block B[i,j] with
// B[j,i]: afterwards processor i holds the i-th block of every
// processor.
func ExampleMachine_Run() {
	const n = 4
	m := bruck.MustNewMachine(n)
	blocks := make([][][]byte, n)
	for i := range blocks {
		blocks[i] = make([][]byte, n)
		for j := range blocks[i] {
			blocks[i][j] = []byte(fmt.Sprintf("B[%d,%d] ", i, j))
		}
	}
	in, err := bruck.FromMatrix(blocks)
	if err != nil {
		panic(err)
	}
	out, err := bruck.NewIndexBuffers(n, in.BlockLen())
	if err != nil {
		panic(err)
	}
	rep, err := m.Run(bruck.Index, in, out, bruck.WithRadix(2))
	if err != nil {
		panic(err)
	}
	fmt.Println("processor 2 holds:", strings.TrimSpace(string(out.Proc(2))))
	fmt.Println("rounds:", rep.C1)
	// Output:
	// processor 2 holds: B[0,2] B[1,2] B[2,2] B[3,2]
	// rounds: 2
}

// Start runs an operation in the background; the caller computes until
// it needs the result, and in and out belong to the operation until
// Wait. The concatenation makes every processor hold B[0] B[1] ...
// B[n-1].
func ExampleMachine_Start() {
	const n = 5
	m := bruck.MustNewMachine(n)
	in, err := bruck.NewConcatBuffers(n, 1)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		in.Block(i, 0)[0] = byte('a' + i)
	}
	out, err := bruck.NewIndexBuffers(n, 1)
	if err != nil {
		panic(err)
	}
	h, err := m.Start(bruck.Concat, in, out)
	if err != nil {
		panic(err)
	}
	// ... independent work overlaps the exchange here ...
	rep, err := h.Wait()
	if err != nil {
		panic(err)
	}
	fmt.Printf("processor 3 holds %q after %d rounds\n", out.Proc(3), rep.C1)
	// Output:
	// processor 3 holds "abcde" after 3 rounds
}

// Compile returns the plan Run would execute, without running it: its
// rounds and volume are the paper's C1 and C2, here the r = 2 and r = n
// special cases of Section 3.3.
func ExampleMachine_Compile() {
	m := bruck.MustNewMachine(64)
	in, err := bruck.NewIndexBuffers(64, 1)
	if err != nil {
		panic(err)
	}
	for _, r := range []int{2, 64} {
		plan, err := m.Compile(bruck.Index, in, bruck.WithRadix(r))
		if err != nil {
			panic(err)
		}
		fmt.Printf("r=%d: C1=%d rounds, C2=%d blocks\n", r, plan.Rounds(), plan.PredictedC2())
	}
	// Output:
	// r=2: C1=6 rounds, C2=192 blocks
	// r=64: C1=63 rounds, C2=63 blocks
}

// OptimalRadix picks the radix the linear model prefers: small radices
// for latency-bound (small) messages, large radices for
// bandwidth-bound (large) messages.
func ExampleOptimalRadix() {
	small := bruck.OptimalRadix(bruck.SP1, 64, 4, 1, true)
	large := bruck.OptimalRadix(bruck.SP1, 64, 4096, 1, true)
	fmt.Println("4-byte blocks:", small)
	fmt.Println("4096-byte blocks:", large)
	// Output:
	// 4-byte blocks: 2
	// 4096-byte blocks: 64
}

// A mixed-radix schedule can beat every uniform radix at intermediate
// message sizes; OptimalRadixSchedule finds the model optimum by
// dynamic programming.
func ExampleOptimalRadixSchedule() {
	radices := bruck.OptimalRadixSchedule(bruck.SP1, 64, 4, 1)
	in, err := bruck.NewIndexBuffers(64, 4)
	if err != nil {
		panic(err)
	}
	plan, err := bruck.MustNewMachine(64).Compile(bruck.Index, in, bruck.WithRadices(radices))
	if err != nil {
		panic(err)
	}
	fmt.Println("vector:", radices)
	fmt.Println("C1:", plan.Rounds(), "C2:", plan.PredictedC2())
	// Output:
	// vector: [2 2 2 2 2 2]
	// C1: 6 C2: 768
}
