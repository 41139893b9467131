package collective

// Tests of the interpreter's payload path: what a message carries, and
// what happens when it is not what the receiver's extents address.

import (
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/mpsim"
)

// TestPayloadLengthMismatchIsAnError perturbs the recv extents of the
// last round of a monolithic and of a segmented plan, so that every rank
// is handed a payload one block longer or shorter than its extents
// address after every send of the run has been matched: each rank must
// fail with the pinned error before it writes a byte — no panic, no
// truncation, no peer left waiting — and the engine must run the
// unperturbed plan correctly afterwards.
func TestPayloadLengthMismatchIsAnError(t *testing.T) {
	const n, blockLen = 16, 12
	e := mpsim.MustNew(n)
	g := mpsim.WorldGroup(n)
	in := genIndexInput(n, blockLen)
	fin, err := buffers.FromMatrix(in)
	if err != nil {
		t.Fatal(err)
	}
	fout, err := buffers.New(n, n, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, segments := range []int{0, 4} {
		for _, delta := range []int32{-1, +1} {
			tag := fmt.Sprintf("segments=%d delta=%+d", segments, delta)
			spec := Spec{Op: OpIndex, BlockLen: blockLen, Index: IndexOptions{Radix: 2}, Segments: segments}
			pl, err := Compile(e, g, spec)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Segments() != segments {
				t.Fatalf("%s: compiled %d segments", tag, pl.Segments())
			}
			rounds := exchangeSteps(pl)
			x := &rounds[len(rounds)-1].xfers[0]
			// A Bruck transfer sends and receives the same slots through
			// one extent list: re-point only the receive side. The radix-2
			// last round is one run of slots 8..15; it becomes 8..14, or
			// 7..14 (nine slots).
			x.recv = append([]extent(nil), x.recv...)
			x.recv[0].n += delta
			if delta > 0 {
				x.recv[0].at.c--
			}
			// Every rank receives the wrong length, and the first to say so
			// ends the run: which ranks got that far varies.
			want := regexp.MustCompile(fmt.Sprintf(`group rank \d+: collective: received %d bytes from p\d+ into extents of %d bytes`,
				pl.prog.measure(x.send, 0), pl.prog.measure(x.recv, 0)))
			_, err = pl.Run(pl.Memory(fin, fout))
			switch {
			case err == nil:
				t.Errorf("%s: a payload of the wrong length was accepted", tag)
			case strings.Contains(err.Error(), "panicked"):
				t.Errorf("%s: %v", tag, err)
			case !want.MatchString(err.Error()):
				t.Errorf("%s: error does not match %q:\n%v", tag, want, err)
			}

			out, _, err := indexSlices(e, g, in, spec.Index)
			if err != nil {
				t.Fatalf("%s: engine not reusable: %v", tag, err)
			}
			checkTranspose(t, in, out, tag+", rerun")
		}
	}
}

// TestExactExtentFamiliesSendExactSizes pins what the layout families
// that move blocks at their true lengths put on the wire: a message
// carries exactly the bytes of the block it moves, not the per-offset
// maximum over ranks its pool buffer is sized for.
func TestExactExtentFamiliesSendExactSizes(t *testing.T) {
	type family struct {
		name  string
		spec  Spec
		pow2  bool
		carry func(l *blocks.Layout, n int, ev mpsim.Event) int // the layout count of the block a message carries
	}
	pair := func(l *blocks.Layout, _ int, ev mpsim.Event) int { return l.Count(ev.Src, ev.Dst) }
	families := []family{
		{name: "indexv-direct", spec: Spec{Op: OpIndexV, Index: IndexOptions{Algorithm: IndexDirect}}, carry: pair},
		{name: "indexv-xor", spec: Spec{Op: OpIndexV, Index: IndexOptions{Algorithm: IndexPairwiseXOR}}, pow2: true, carry: pair},
		// Ring round t forwards towards rank src-1 the block that
		// originated t places up the ring.
		{name: "concatv-ring", spec: Spec{Op: OpConcatV, Concat: ConcatOptions{Algorithm: ConcatRing}},
			carry: func(l *blocks.Layout, n int, ev mpsim.Event) int { return l.Count((ev.Src+ev.Round)%n, 0) }},
	}
	for _, fam := range families {
		for _, n := range []int{6, 8} {
			if fam.pow2 && n&(n-1) != 0 {
				continue
			}
			for k := 1; k <= 2; k++ {
				tag := fmt.Sprintf("%s n=%d k=%d", fam.name, n, k)
				// Skewed, with zero-length blocks: rows differ by up to 3x
				// and a seventh of the blocks are empty.
				var l *blocks.Layout
				var err error
				wantBytes := 0
				if fam.spec.Op == OpConcatV {
					counts := make([]int, n)
					for i := range counts {
						counts[i] = (5 * i % 7) * (1 + i%3) * 3
						wantBytes += (n - 1) * counts[i]
					}
					l, err = blocks.RaggedVector(counts)
				} else {
					counts := make([][]int, n)
					for i := range counts {
						counts[i] = make([]int, n)
						for j := range counts[i] {
							counts[i][j] = ((3*i + 5*j) % 7) * (1 + i%3)
							if i != j {
								wantBytes += counts[i][j]
							}
						}
					}
					l, err = blocks.Ragged(counts)
				}
				if err != nil {
					t.Fatal(err)
				}
				e := mpsim.MustNew(n, mpsim.Ports(k), mpsim.Record(true))
				spec := fam.spec
				spec.Layout = l
				pl, err := Compile(e, mpsim.WorldGroup(n), spec)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				vin, _ := buffers.NewRagged(l)
				vout, _ := buffers.NewRagged(pl.OutLayout())
				fillRagged(vin)
				res, err := pl.Run(pl.Memory(vin, vout))
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if want := int64(n * (n - 1)); res.Messages != want {
					t.Errorf("%s: %d messages, want %d", tag, res.Messages, want)
				}
				if res.TotalBytes != int64(wantBytes) {
					t.Errorf("%s: %d bytes on the wire, the layout's blocks are %d", tag, res.TotalBytes, wantBytes)
				}
				for _, ev := range e.Metrics().Events() {
					if want := fam.carry(l, n, ev); ev.Size != want {
						t.Errorf("%s: round %d p%d -> p%d is %d bytes, its block is %d", tag, ev.Round, ev.Src, ev.Dst, ev.Size, want)
					}
				}
			}
		}
	}
}

// TestRingSwapAfterAFailedRound: a ring round gives its region's buffer
// away and adopts the one it receives, so a rank that dies mid-ring has
// buffers of its own in its peers' hands and theirs in its own. A user
// kernel panics once, on one rank, a few rounds into a ring AllReduce;
// the run reports that panic, and the same engine then runs the plan a
// hundred times correctly, plain and under chaos, and on the walk at
// two workers, whose buffers also cross between the workers' free lists.
// Were a buffer left in two pools, two ranks would sooner or later
// reduce in the same memory: a wrong block here, and a data race under
// -race.
func TestRingSwapAfterAFailedRound(t *testing.T) {
	const n, blockLen, runs = 8, 64, 100
	sum := must(buffers.Kernel(buffers.Sum, buffers.Int32))
	for _, c := range []struct {
		name    string
		engine  []mpsim.Option
		workers int // the walk's, 0 for Run's choice
	}{
		{"plain", nil, 0}, {"plain", nil, 2},
		{"chaos", []mpsim.Option{mpsim.WithChaos(mpsim.ChaosConfig{Seed: 5})}, 0},
	} {
		e := mpsim.MustNew(n, c.engine...)
		var countdown atomic.Int32
		kernel := func(dst, src []byte) {
			if countdown.Add(-1) == 0 {
				panic("bad kernel")
			}
			sum(dst, src)
		}
		pl, err := Compile(e, mpsim.WorldGroup(n), Spec{Op: OpAllReduce, BlockLen: blockLen, Reduce: ReduceOptions{Kernel: kernel}})
		if err != nil {
			t.Fatal(err)
		}
		if x := exchangeSteps(pl)[0].xfers[0]; !x.swap {
			t.Fatalf("%s: the ring's rounds are not swaps", c.name)
		}
		exercise := func() error {
			mem := must(pl.Alloc())
			pl.Fill(mem, buffers.Int32.Fill)
			run := pl.Run
			if c.workers > 0 {
				run = pl.walkAt(c.workers)
			}
			if _, err := run(mem); err != nil {
				return err
			}
			return pl.Verify(mem)
		}
		countdown.Store(3 * n) // the ring combines n*(n-1) times
		if err := exercise(); err == nil || !strings.Contains(err.Error(), "panicked: bad kernel") {
			t.Fatalf("%s W=%d: error %v, want the kernel's panic", c.name, c.workers, err)
		}
		for run := 0; run < runs; run++ {
			if err := exercise(); err != nil {
				t.Fatalf("%s W=%d: run %d after the failure: %v", c.name, c.workers, run, err)
			}
		}
	}
}
