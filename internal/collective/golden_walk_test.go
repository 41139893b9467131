package collective_test

import (
	"testing"

	"bruck/internal/collective"
	"bruck/internal/golden"
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
