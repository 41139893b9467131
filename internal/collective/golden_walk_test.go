package collective_test

import (
	"testing"

	"bruck/internal/collective"
	"bruck/internal/golden"
	"bruck/internal/mpsim"
)

// TestWalkWorkersAgreeGolden is TestWalkWorkersAgree over the golden
// corpus: every case on the walk at one to four workers, each run held
// to the oracle.
func TestWalkWorkersAgreeGolden(t *testing.T) {
	for _, c := range golden.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			pl, err := golden.Compile(c)
			if err != nil {
				t.Fatal(err)
			}
			collective.WalkersAgree(t, []*collective.Plan{pl}, collective.Labels)
		})
	}
}

// TestByRefForcedGolden is TestByRefForced over the golden corpus.
func TestByRefForcedGolden(t *testing.T) {
	for _, c := range golden.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			pl, err := golden.Compile(c)
			if err != nil {
				t.Fatal(err)
			}
			collective.ByRefForced(t, c.Name, pl)
		})
	}
}

// TestPlaceGolden is TestPlace over the golden corpus.
func TestPlaceGolden(t *testing.T) {
	for _, c := range golden.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			s, err := c.Spec()
			if err != nil {
				t.Fatal(err)
			}
			var groupOf []int
			if s.Topology != nil {
				groupOf = s.Topology.GroupAssignment()
			}
			collective.PlaceHolds(t, c.Name, mpsim.MustNew(c.N, mpsim.Ports(c.K), mpsim.WithTopology(groupOf)), mpsim.WorldGroup(c.N), s)
		})
	}
}
