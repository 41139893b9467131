package schedcheck_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bruck/internal/analysis/schedcheck"
	"bruck/internal/golden"
	"bruck/internal/trace"
)

// goldenDir locates the committed corpus from this package's directory.
var goldenDir = filepath.Join("..", "..", "golden", golden.Dir)

func loadGolden(t *testing.T, c golden.Case) *trace.Schedule {
	t.Helper()
	data, err := os.ReadFile(golden.Path(goldenDir, c))
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}
	s, err := trace.ParseSchedule(data)
	if err != nil {
		t.Fatalf("parsing artifact: %v", err)
	}
	return s
}

// TestGoldenCorpusVerifies proves every committed golden artifact is
// well-formed under the static schedule verifier.
func TestGoldenCorpusVerifies(t *testing.T) {
	for _, c := range golden.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			s := loadGolden(t, c)
			if v := schedcheck.Verify(s); len(v) != 0 {
				t.Fatalf("Verify on a committed golden artifact reported:\n  %s", strings.Join(v, "\n  "))
			}
		})
	}
}

// TestPerturbedArtifactsRejected mutates a well-formed artifact each of
// the ways a drifted or corrupted trace would break and asserts Verify
// rejects it with a violation naming the break.
func TestPerturbedArtifactsRejected(t *testing.T) {
	base := golden.Case{Name: "index-bruck-n12-k3"}
	cases := []struct {
		name    string
		mutate  func(s *trace.Schedule)
		wantSub string
	}{
		{
			name: "extra send breaks pattern and k-port",
			mutate: func(s *trace.Schedule) {
				rd := &s.Rounds[0]
				extra := rd.Sends[len(rd.Sends)-1]
				extra.Dst = (extra.Dst + 1) % s.N
				rd.Sends = append(rd.Sends, extra)
			},
			wantSub: "pattern",
		},
		{
			name: "dropped send breaks conservation",
			mutate: func(s *trace.Schedule) {
				rd := &s.Rounds[len(s.Rounds)-1]
				rd.Sends = rd.Sends[:len(rd.Sends)-1]
			},
			wantSub: "",
		},
		{
			name:    "wrong c2",
			mutate:  func(s *trace.Schedule) { s.C2++ },
			wantSub: "c2",
		},
		{
			name:    "wrong c1",
			mutate:  func(s *trace.Schedule) { s.C1++ },
			wantSub: "c1",
		},
		{
			name: "self-send",
			mutate: func(s *trace.Schedule) {
				s.Rounds[0].Sends[0].Dst = s.Rounds[0].Sends[0].Src
			},
			wantSub: "self-send",
		},
		{
			name: "k-port violation",
			mutate: func(s *trace.Schedule) {
				rd := &s.Rounds[0]
				src := rd.Sends[0].Src
				added := 0
				for dst := 0; dst < s.N && added <= s.K; dst++ {
					if dst == src {
						continue
					}
					rd.Sends = append(rd.Sends, trace.ScheduleSend{Src: src, Dst: dst, Bytes: 1})
					added++
				}
			},
			wantSub: "k-port limit",
		},
		{
			name: "rank outside group",
			mutate: func(s *trace.Schedule) {
				s.Rounds[0].Sends[0].Dst = s.N
			},
			wantSub: "outside group",
		},
		{
			name: "non-canonical order",
			mutate: func(s *trace.Schedule) {
				rd := &s.Rounds[0]
				rd.Sends[0], rd.Sends[1] = rd.Sends[1], rd.Sends[0]
			},
			wantSub: "canonical",
		},
		{
			name:    "unknown op",
			mutate:  func(s *trace.Schedule) { s.Op = "transpose" },
			wantSub: "unknown operation",
		},
		{
			name: "pattern block dropped",
			mutate: func(s *trace.Schedule) {
				tr := &s.Pattern[0].Transfers[0]
				tr.Blocks = tr.Blocks[:len(tr.Blocks)-1]
			},
			wantSub: "account for",
		},
		{
			name: "golden.Perturb drift",
			mutate: func(s *trace.Schedule) {
				golden.Perturb(s)
			},
			wantSub: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := loadGolden(t, base)
			tc.mutate(s)
			v := schedcheck.Verify(s)
			if len(v) == 0 {
				t.Fatalf("Verify accepted the perturbed artifact")
			}
			if tc.wantSub != "" {
				found := false
				for _, msg := range v {
					if strings.Contains(msg, tc.wantSub) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("no violation mentions %q; got:\n  %s", tc.wantSub, strings.Join(v, "\n  "))
				}
			}
		})
	}
}

// TestHierarchicalLevelDiscipline perturbs a hierarchical artifact
// across the level dimension and asserts the verifier names the
// link-class break, not just a byte-accounting side effect.
func TestHierarchicalLevelDiscipline(t *testing.T) {
	base := golden.Case{Name: "hier-index-4x4"}
	cases := []struct {
		name    string
		mutate  func(s *trace.Schedule)
		wantSub string
	}{
		{
			name: "inter transfer displaced into an intra phase",
			mutate: func(s *trace.Schedule) {
				if !golden.PerturbPhase(s) {
					t.Fatal("PerturbPhase found nothing to displace")
				}
			},
			wantSub: "intra) sends",
		},
		{
			name: "intra-group send inside an inter phase",
			mutate: func(s *trace.Schedule) {
				for _, ph := range s.Phases {
					if ph.Class != "inter" {
						continue
					}
					s.Rounds[ph.First].Sends[0].Dst = s.Rounds[ph.First].Sends[0].Src + 1
					return
				}
				t.Fatal("no inter phase in artifact")
			},
			wantSub: "inter) sends",
		},
		{
			name: "phase tiling gap",
			mutate: func(s *trace.Schedule) {
				s.Phases[1].First++
			},
			wantSub: "tile",
		},
		{
			name: "phase c2 drift",
			mutate: func(s *trace.Schedule) {
				s.Phases[0].C2++
			},
			wantSub: "c2",
		},
		{
			name: "group table mismatch",
			mutate: func(s *trace.Schedule) {
				s.Groups[0]++
			},
			wantSub: "groups",
		},
		{
			name: "topology meta without phases",
			mutate: func(s *trace.Schedule) {
				s.Phases = nil
			},
			wantSub: "without a phase table",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := loadGolden(t, base)
			tc.mutate(s)
			v := schedcheck.Verify(s)
			if len(v) == 0 {
				t.Fatalf("Verify accepted the perturbed hierarchical artifact")
			}
			found := false
			for _, msg := range v {
				if strings.Contains(msg, tc.wantSub) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no violation mentions %q; got:\n  %s", tc.wantSub, strings.Join(v, "\n  "))
			}
		})
	}
}

// TestMissingSendsReportedInOffsetOrder: the sends a round's pattern
// predicts and the trace lacks are collected from a map, and every
// Verify lists them by offset all the same.
func TestMissingSendsReportedInOffsetOrder(t *testing.T) {
	s := loadGolden(t, golden.Case{Name: "index-bruck-n12-k3"})
	for i := 0; i < 3; i++ {
		s.Rounds[0].Sends[i].Bytes++ // p0's sends at offsets 1, 2 and 3
	}
	want := []string{
		"pattern[0]: 1 missing send(s) of offset 1, 12B",
		"pattern[0]: 1 missing send(s) of offset 2, 12B",
		"pattern[0]: 1 missing send(s) of offset 3, 12B",
	}
	for run := 0; run < 16; run++ {
		var got []string
		for _, msg := range schedcheck.Verify(s) {
			if strings.Contains(msg, "missing send") {
				got = append(got, msg)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("missing sends reported as\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}
