package benchsuite

import (
	"testing"

	"bruck/internal/benchsnap"
)

func TestSuiteShape(t *testing.T) {
	areas := Areas()
	if len(areas) != 4 || areas[0] != "collectives" || areas[1] != "hier" ||
		areas[2] != "pipeline" || areas[3] != "reduce" {
		t.Fatalf("areas=%v", areas)
	}
	seen := map[string]bool{}
	for _, b := range Suite() {
		if b.Area == "" || b.Name == "" {
			t.Fatalf("malformed bench %+v", b)
		}
		if seen[b.Name] {
			t.Fatalf("duplicate bench name %q", b.Name)
		}
		seen[b.Name] = true
	}
	if got := len(ByArea("collectives")); got < 10 {
		t.Fatalf("collectives suite has %d cases, want >= 10", got)
	}
	if got := len(ByArea("reduce")); got < 5 {
		t.Fatalf("reduce suite has %d cases, want >= 5", got)
	}
	if got := len(ByArea("pipeline")); got < 6 {
		t.Fatalf("pipeline suite has %d cases, want >= 6", got)
	}
	if got := len(ByArea("hier")); got != 6 {
		t.Fatalf("hier suite has %d cases, want 6 (flat and hier arms of 3 ops)", got)
	}
	if len(ByArea("nope")) != 0 {
		t.Fatal("unknown area returned cases")
	}
}

// TestMeasureEveryCase runs each suite entry for a couple of
// iterations: every operation must execute cleanly and produce a sane
// snapshot case, and every schedule-backed case must report the
// cost-model counts.
func TestMeasureEveryCase(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark operation")
	}
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c, err := Measure(b, Options{MinIters: 2})
			if err != nil {
				t.Fatal(err)
			}
			if c.Name != b.Name {
				t.Fatalf("case name %q, want %q", c.Name, b.Name)
			}
			if c.Iters < 2 || c.NsPerOp <= 0 {
				t.Fatalf("implausible measurement: %+v", c)
			}
			if c.C1 <= 0 || c.C2 <= 0 {
				t.Fatalf("missing cost-model counts: %+v", c)
			}
		})
	}
}

// TestSnapshotRoundTrip builds a real snapshot from two fast cases and
// round-trips it through the benchsnap canonical encoding — the bench
// subcommand's write path in miniature.
func TestSnapshotRoundTrip(t *testing.T) {
	s := benchsnap.New("collectives")
	for _, b := range ByArea("collectives")[:2] {
		c, err := Measure(b, Options{MinIters: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Cases = append(s.Cases, c)
	}
	data, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	got, err := benchsnap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cases) != 2 {
		t.Fatalf("round trip lost cases: %+v", got)
	}
	if regs, err := benchsnap.Compare(got, got, benchsnap.DefaultThresholds()); err != nil || len(regs) != 0 {
		t.Fatalf("self-compare: regs=%v err=%v", regs, err)
	}
}
