package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
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

// rejections lists every validator message a Case can reach, one
// pattern each — over the text after "golden: case <name>: " — with a
// case that draws it and that case's exact text. TestCaseRejections
// holds each case to its text, and FuzzCase accepts a rejection only
// when one of the patterns matches it: a changed text, or a validator
// that starts rejecting a case the others accept, fails the target.
var rejections = []rejection{
	// The engine.
	{`mpsim: processor count n = 0, want n >= 1`,
		Case{Op: "index", N: 0, K: 1, B: 4}, `mpsim: processor count n = 0, want n >= 1`},
	{`mpsim: port count k = -?\d+, want 1 <= k <= \d+ for n = \d+`,
		Case{Op: "index", N: 4, K: 4, B: 4}, `mpsim: port count k = 4, want 1 <= k <= 3 for n = 4`},
	// Names.
	{`collective: unknown operation ".*"`,
		Case{Op: "sort", N: 4, K: 1, B: 4}, `collective: unknown operation "sort"`},
	{`collective: unknown [a-z-]+ algorithm ".*"`,
		Case{Op: "index", Alg: "quick", N: 4, K: 1, B: 4}, `collective: unknown index algorithm "quick"`},
	// The topology parser.
	{`costmodel: empty topology spec`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: ":1,2/3,4"}, `costmodel: empty topology spec`},
	{`costmodel: bad topology group count ".*": strconv.Atoi: parsing ".*": (invalid syntax|value out of range)`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "ax4"},
		`costmodel: bad topology group count "a": strconv.Atoi: parsing "a": invalid syntax`},
	{`costmodel: bad topology group size ".*": strconv.Atoi: parsing ".*": (invalid syntax|value out of range)`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "2,b"},
		`costmodel: bad topology group size "b": strconv.Atoi: parsing "b": invalid syntax`},
	{`costmodel: topology ".*" needs positive dimensions`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "0x4"}, `costmodel: topology "0x4" needs positive dimensions`},
	{`costmodel: topology group \d+ has size -?\d+ \(empty groups are invalid\)`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 2, Topology: "0,4"},
		`costmodel: topology group 0 has size 0 (empty groups are invalid)`},
	{`costmodel: topology profiles ".*": want intra/inter as beta,tau/beta,tau`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "2x2:1,2"},
		`costmodel: topology profiles "1,2": want intra/inter as beta,tau/beta,tau`},
	{`costmodel: topology (intra|inter) profile ".*": want beta,tau`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "2x2:1/2,3"}, `costmodel: topology intra profile "1": want beta,tau`},
	{`costmodel: topology (intra|inter) (beta|tau) ".*": strconv.ParseFloat: parsing ".*": (invalid syntax|value out of range)`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "2x2:1,1/1,t"},
		`costmodel: topology inter tau "t": strconv.ParseFloat: parsing "t": invalid syntax`},
	{`costmodel: (intra|inter) profile: costmodel: profile "(intra|inter)" has negative parameters \(beta=\S+, tau=\S+\)`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "2x2:-1,0/1,1"},
		`costmodel: intra profile: costmodel: profile "intra" has negative parameters (beta=-1, tau=0)`},
	{`costmodel: (intra|inter) profile: costmodel: profile "(intra|inter)" is degenerate \(beta=tau=0\)`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "2x2:1,1/0,0"},
		`costmodel: inter profile: costmodel: profile "inter" is degenerate (beta=tau=0)`},
	// The spec.
	{`collective: (broadcast|gather|scatter) root -?\d+ out of range \[0,\d+\)`,
		Case{Op: "broadcast", N: 4, K: 1, B: 4, Root: 4}, `collective: broadcast root 4 out of range [0,4)`},
	{`collective: hierarchical schedule requires a topology \(a machine created with WithTopology\)`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4},
		`collective: hierarchical schedule requires a topology (a machine created with WithTopology)`},
	{`collective: hierarchical reduction supports AllReduceKind only, got reduce-scatter`,
		Case{Op: "reduce-scatter", Alg: "hier", N: 4, K: 1, B: 8, Topology: "2x2"},
		`collective: hierarchical reduction supports AllReduceKind only, got reduce-scatter`},
	{`collective: segment count -?\d+ out of range \(0 or 1 is monolithic, AutoSegments is -1\)`,
		Case{Op: "index", N: 4, K: 1, B: 4, Segments: -2},
		`collective: segment count -2 out of range (0 or 1 is monolithic, AutoSegments is -1)`},
	{`collective: index radix -?\d+ out of range \[2, \d+\]`,
		Case{Op: "index", N: 4, K: 1, B: 4, Radix: 5}, `collective: index radix 5 out of range [2, 4]`},
	{`collective: pairwise-xor index requires a power-of-two group size, got \d+`,
		Case{Op: "index", Alg: "xor", N: 6, K: 1, B: 4}, `collective: pairwise-xor index requires a power-of-two group size, got 6`},
	{`collective: [a-z-]+ has no V variant \(ConcatV supports circulant and ring\)`,
		Case{Op: "concat", Alg: "folklore", N: 4, K: 1, B: 4, Ragged: true},
		`collective: folklore has no V variant (ConcatV supports circulant and ring)`},
	{`collective: recursive doubling requires a power-of-two group size, got \d+`,
		Case{Op: "concat", Alg: "recdbl", N: 6, K: 1, B: 4}, `collective: recursive doubling requires a power-of-two group size, got 6`},
	{`collective: block size \d+ is not a multiple of the kernel's 4-byte elements`,
		Case{Op: "allreduce", N: 4, K: 1, B: 6}, `collective: block size 6 is not a multiple of the kernel's 4-byte elements`},
	{`collective: reduce radix -?\d+ out of range \[2, \d+\]`,
		Case{Op: "reduce-scatter", Alg: "bruck", N: 4, K: 1, B: 8, Radix: 9}, `collective: reduce radix 9 out of range [2, 4]`},
	{`collective: recursive halving requires a power-of-two group size, got \d+`,
		Case{Op: "reduce-scatter", Alg: "halving", N: 6, K: 1, B: 8},
		`collective: recursive halving requires a power-of-two group size, got 6`},
	{`collective: topology covers \d+ processors but the group has \d+`,
		Case{Op: "index", Alg: "hier", N: 4, K: 1, B: 4, Topology: "2x3"}, `collective: topology covers 6 processors but the group has 4`},
}

type rejection struct {
	pattern string
	c       Case
	text    string
}

func (r rejection) matches(text string) bool {
	return regexp.MustCompile("^(?:" + r.pattern + ")$").MatchString(text)
}

// rejected reports whether err, a Case's compile error, is one of the
// validator messages in rejections.
func rejected(c Case, err error) bool {
	text, ok := strings.CutPrefix(err.Error(), "golden: case "+c.Name+": ")
	return ok && slices.ContainsFunc(rejections, func(r rejection) bool { return r.matches(text) })
}

// TestCaseRejections pins every entry of rejections to an exact text:
// its case draws that text, its pattern matches it, and no other
// entry's pattern does.
func TestCaseRejections(t *testing.T) {
	for i, r := range rejections {
		r.c.Name = "fuzz"
		want := "golden: case fuzz: " + r.text
		if _, _, err := r.c.compile(); err == nil || err.Error() != want {
			t.Errorf("error message did not match\nexpected: %s\n  actual: %v", want, err)
		}
		for j, other := range rejections {
			if matched := other.matches(r.text); matched != (i == j) {
				t.Errorf("pattern %d (%s) matches %v the text of entry %d: %s", j, other.pattern, matched, i, r.text)
			}
		}
	}
}

// FuzzCase is the differential target over the whole Case space plus a
// chaos seed and straggler mask: a case that compiles must pass
// the symbolic proof, then the byte oracle (which also holds the
// measured C1/C2 to the compiled ones) — at seed 0 on a plain engine,
// at any other seed under chaos through Capture (rank r < 16 straggles
// when bit r of stragglers is set), where the run must also record
// exactly the messages the program predicts. A case that does not
// compile must have been rejected with one of the validator messages in
// rejections — never by a panic, a failed check or a new text.
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
	// A hierarchical index on uneven groups under chaos.
	add(Case{Op: "index", Alg: "hier", N: 6, K: 2, B: 2, Topology: "3,2,1"}, 7, 5)
	// Flat families under chaos, with and without stragglers.
	add(Case{Op: "index", Alg: "bruck", N: 8, K: 1, B: 4, Radix: 2}, 1, 1)
	add(Case{Op: "concat", Alg: "circulant", N: 11, K: 2, B: 4}, 42, 5)
	add(Case{Op: "concat", Alg: "ring", N: 5, K: 3, B: 4}, 7, 0)
	add(Case{Op: "reduce-scatter", Alg: "bruck", N: 9, K: 2, B: 4, Radix: 5}, 99, 0x102)
	// Segment boundaries: uneven spans, more segments than bytes or
	// rounds, one byte, one segment.
	for _, nbs := range [][3]int{{8, 9, 4}, {16, 7, 7}, {5, 3, 100}, {4, 1, 2}, {9, 16, 1}} {
		add(Case{Op: "index", Alg: "bruck", N: nbs[0], K: 1, B: nbs[1], Radix: 2, Segments: nbs[2]}, 0, 0)
	}
	// Hierarchical partitions: two groups, single members, uneven, an
	// empty group (rejected), one group (flat), three groups.
	for _, tk := range []struct {
		topology string
		n, k     int
	}{{"4,4", 8, 1}, {"1,1,1,1", 4, 2}, {"3,2,1", 6, 1}, {"0,4", 4, 1}, {"5", 5, 3}, {"2,2,2", 6, 2}} {
		add(Case{Op: "index", Alg: "hier", N: tk.n, K: tk.k, B: 2, Topology: tk.topology}, 0, 0)
	}
	f.Fuzz(func(t *testing.T, op, alg string, n, k, b, radix, segments int, ragged bool, topology string, root int, seed uint64, stragglers uint16) {
		c := Case{Name: "fuzz", Op: op, Alg: alg, N: n % 25, K: k, B: b % 65, Radix: radix, Segments: segments % 257,
			Ragged: ragged, Topology: topology, Root: root}
		if c.N < 0 || c.B < 0 || len(topology) > 16 {
			t.Skip("outside the drawn ranges")
		}
		_, pl, err := c.compile()
		if err != nil {
			if !rejected(c, err) {
				t.Fatalf("%+v: rejected by no validator message in rejections: %v", c, err)
			}
			return
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
