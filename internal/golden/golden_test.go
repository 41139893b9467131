package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bruck/internal/collective"
	"bruck/internal/mpsim"
)

// update regenerates the committed golden artifacts from a live chan
// run: `go test ./internal/golden -update`. Review the resulting diff —
// a golden change is a schedule change.
var update = flag.Bool("update", false, "rewrite the golden program listings from a live run")

// TestGoldenTraces is the corpus gate: every case's run must send
// exactly the messages its program predicts — on the engine over chan
// and under the chaos transport — and the
// program's listing must byte-match its committed artifact. With
// -update the chan capture rewrites the artifacts instead.
func TestGoldenTraces(t *testing.T) {
	for _, c := range Corpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			live, err := Capture(c)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			if *update {
				if err := Write(Dir, c, live); err != nil {
					t.Fatalf("update: %v", err)
				}
				return
			}
			diffs, err := Verify(Dir, c, live)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) != 0 {
				t.Fatalf("program drifted from golden:\n  %s", strings.Join(diffs, "\n  "))
			}
			if _, err := Capture(c, mpsim.WithChaos(mpsim.ChaosConfig{Seed: 1, Stragglers: []int{0}})); err != nil {
				t.Fatalf("capture under chaos: %v", err)
			}
		})
	}
}

// TestCorpusArtifacts: the golden directory holds exactly one listing
// per corpus case — no artifact of a case that is gone, nor of an older
// format.
func TestCorpusArtifacts(t *testing.T) {
	entries, err := os.ReadDir(Dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	for _, c := range Corpus() {
		want = append(want, filepath.Base(Path(Dir, c)))
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("artifacts %v, want one per case: %v", got, want)
	}
}

// TestLargerMessageFailsCapture is the negative control of Capture's
// events comparison: on every case, a message one byte larger than the
// program predicts is a mismatch naming that message.
func TestLargerMessageFailsCapture(t *testing.T) {
	for _, c := range Corpus() {
		pl, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		want := pl.Messages()
		got := slices.Clone(want)
		got[len(got)/2].Size++
		if err := sameMessages(got, want); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("message %d: ", len(got)/2)) {
			t.Errorf("%s: a message one byte larger: %v", c.Name, err)
		}
	}
}

// TestVerifyMissingArtifact: a case with no committed artifact fails
// naming the commands that record one.
func TestVerifyMissingArtifact(t *testing.T) {
	dir, c := t.TempDir(), Corpus()[0]
	want := fmt.Sprintf("golden: no artifact for case %s (run with -update or `bruckctl trace record`): open %s: no such file or directory", c.Name, Path(dir, c))
	if _, err := Verify(dir, c, ""); err == nil || err.Error() != want {
		t.Errorf("error message did not match\nexpected: %s\n  actual: %v", want, err)
	}
}

// TestCaptureDeterministic: two captures of one case produce
// byte-identical listings (the property that makes goldens possible at
// all).
func TestCaptureDeterministic(t *testing.T) {
	for _, c := range Corpus() {
		a, err := Capture(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Capture(c)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s: two captures produced different listings", c.Name)
		}
	}
}

// fuzzCase clamps raw fuzz inputs into a valid corpus-style case plus a
// chaos configuration. opSel picks the schedule family among those
// valid for arbitrary n.
func fuzzCase(opSel, nRaw, kRaw, radixRaw uint8, seed uint64, stragglerMask uint16) (Case, mpsim.ChaosConfig) {
	n := 1 + int(nRaw)%12
	kMax := n - 1 // the engine requires 1 <= k <= n-1
	if kMax < 1 {
		kMax = 1
	}
	if kMax > 3 {
		kMax = 3
	}
	k := 1 + int(kRaw)%kMax
	c := Case{N: n, K: k, B: 4}
	switch opSel % 4 {
	case 0:
		c.Op, c.Alg = "index", "bruck"
		if n > 1 {
			c.Radix = 2 + int(radixRaw)%(n-1)
		}
	case 1:
		c.Op, c.Alg = "concat", "circulant"
	case 2:
		c.Op, c.Alg = "concat", "ring"
	case 3:
		c.Op, c.Alg = "reduce-scatter", "bruck"
		if n > 1 {
			c.Radix = 2 + int(radixRaw)%(n-1)
		}
	}
	c.Name = fmt.Sprintf("fuzz-%s-%s-n%d-k%d-r%d", c.Op, c.Alg, n, k, c.Radix)
	cfg := mpsim.ChaosConfig{Seed: seed}
	for rank := 0; rank < n && rank < 16; rank++ {
		if stragglerMask&(1<<rank) != 0 {
			cfg.Stragglers = append(cfg.Stragglers, rank)
		}
	}
	return c, cfg
}

// FuzzChaosSchedule drives random (operation, n, k, radix, seed,
// straggler set) configurations through a chaos run and asserts the
// tentpole invariant: the run byte-verifies against the independent
// reference and records exactly the messages the program predicts (both
// inside Capture).
func FuzzChaosSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(0), uint8(0), uint64(1), uint16(1))
	f.Add(uint8(1), uint8(10), uint8(1), uint8(2), uint64(42), uint16(5))
	f.Add(uint8(2), uint8(4), uint8(2), uint8(0), uint64(7), uint16(0))
	f.Add(uint8(3), uint8(8), uint8(1), uint8(3), uint64(99), uint16(0x102))
	f.Fuzz(func(t *testing.T, opSel, nRaw, kRaw, radixRaw uint8, seed uint64, stragglerMask uint16) {
		c, cfg := fuzzCase(opSel, nRaw, kRaw, radixRaw, seed, stragglerMask)
		if _, err := Capture(c, mpsim.WithChaos(cfg)); err != nil {
			t.Fatalf("%s: chaos capture (cfg %+v): %v", c.Name, cfg, err)
		}
	})
}

// FuzzCase is the differential target over the whole Case space plus a
// chaos seed and straggler mask: a case that compiles must pass
// the symbolic proof, then the byte oracle (which also holds the
// measured C1/C2 to the compiled ones) — at seed 0 on a plain engine,
// at any other seed under chaos through Capture (rank r < 16 straggles
// when bit r of stragglers is set), where the run must also record
// exactly the messages the program predicts. A case that does not
// compile must have been rejected by name parsing, the topology parser,
// the engine or Spec.canonicalize — never by a panic or a failed check.
func FuzzCase(f *testing.F) {
	add := func(c Case, seed uint64, stragglers uint16) {
		f.Add(c.Op, c.Alg, c.N, c.K, c.B, c.Radix, c.Segments, c.Ragged, c.Topology, c.Root, seed, stragglers)
	}
	for _, c := range Corpus() {
		add(c, 0, 0)
	}
	for _, op := range []string{"broadcast", "gather", "scatter"} {
		add(Case{Op: op, Alg: "tree", N: 7, K: 2, B: 4, Root: 3}, 0, 0)
	}
	// Found by this target: an all-zero ragged concat undercuts the round bound.
	add(Case{Op: "concat", N: 42, K: 1, Ragged: true}, 0, 0)
	// A hierarchical index on uneven groups under chaos, beyond the flat
	// families FuzzChaosSchedule draws.
	add(Case{Op: "index", Alg: "hier", N: 6, K: 2, B: 2, Topology: "3,2,1"}, 7, 5)
	f.Fuzz(func(t *testing.T, op, alg string, n, k, b, radix, segments int, ragged bool, topology string, root int, seed uint64, stragglers uint16) {
		c := Case{Name: "fuzz", Op: op, Alg: alg, N: n % 25, K: k, B: b % 65, Radix: radix, Segments: segments % 257,
			Ragged: ragged, Topology: topology, Root: root}
		if c.N < 0 || c.B < 0 || len(topology) > 16 {
			t.Skip("outside the drawn ranges")
		}
		_, pl, err := c.compile()
		if err != nil {
			for _, origin := range []string{"collective: ", "costmodel: ", "mpsim: "} {
				if strings.HasPrefix(err.Error(), "golden: case fuzz: "+origin) {
					return
				}
			}
			t.Fatalf("%+v: rejected outside the validators: %v", c, err)
		}
		if v := pl.Check(); v != nil {
			t.Fatalf("%+v: Check: %v", c, v)
		}
		if seed == 0 {
			if _, err := collective.Exercise(pl, collective.Labels); err != nil {
				t.Fatalf("%+v: Exercise: %v", c, err)
			}
			return
		}
		cfg := mpsim.ChaosConfig{Seed: seed}
		for rank := 0; rank < min(c.N, 16); rank++ {
			if stragglers&(1<<rank) != 0 {
				cfg.Stragglers = append(cfg.Stragglers, rank)
			}
		}
		if _, err := Capture(c, mpsim.WithChaos(cfg)); err != nil {
			t.Fatalf("%+v: chaos capture (%+v): %v", c, cfg, err)
		}
	})
}
