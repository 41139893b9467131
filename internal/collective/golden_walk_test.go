package collective_test

import (
	"testing"

	"bruck/internal/collective"
	"bruck/internal/golden"
)

// TestWalkWorkersAgreeGolden is TestWalkWorkersAgree over the golden
// corpus: every case on the walk at one to four workers, with the same
// output bytes and Result at each.
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
