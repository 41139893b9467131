package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeBudget runs a workload for a few dozen ops, every one verified.
func smokeBudget(w *workload) budget {
	return budget{setups: 2, warm: time.Millisecond, timed: 150 * time.Millisecond, windows: 2,
		verifyEvery: 1, cycleLen: min(w.cycleLen, 64), latCap: 1 << 10}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestCatalogueMatchesBenchmarkFile keeps BENCHMARK.json and the
// harness's own tables in step: same workloads, same metrics, same
// units, directions and bounds, in the same order.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	var got []metric
	for _, m := range f.EndToEnd {
		got = append(got, metric{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound})
	}
	for _, m := range f.PerLayer {
		got = append(got, metric{name: m.Name, unit: m.Unit, better: m.Better})
	}
	want := append(append([]metric(nil), endToEndMetrics...), perLayerMetrics...)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json has %d metrics, the harness %d", len(got), len(want))
	}
	seen := map[string]bool{}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range want {
		w.moves = ""
		if got[i] != w {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the harness %+v", i, got[i], w)
		}
		if !name.MatchString(w.name) || w.unit == "" {
			t.Errorf("metric %q (unit %q): bad name or no unit", w.name, w.unit)
		}
		if seen[w.name] {
			t.Errorf("metric %q is listed twice", w.name)
		}
		seen[w.name] = true
	}
	if f.Command[len(f.Command)-1] != "benchmark/run.sh" || len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("BENCHMARK.json command %v, paths %v", f.Command, f.Paths)
	}
}

// TestSmoke runs every workload briefly in both modes and checks that
// each emits exactly its mode's metrics, all outputs verified.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range map[string][]metric{"0": endToEndMetrics, "1": perLayerMetrics} {
			b := smokeBudget(w)
			rep, spans, err := runWorkload(w, 3, b, trace, nil, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %s: %v", w.name, trace, err)
			}
			res := resultOf(rep)
			// A set-up, a warm-up and a window each make one call at least.
			if !res.Correct || res.Failed != 0 || res.Attempted < b.setups+2*b.windows {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace %s: metric %s: got %+v (present %v), want unit %s", w.name, trace, m.name, got, ok, m.unit)
				}
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
				continue
			}
			if len(rep.Shares) == 0 || len(spans) == 0 || len(spans)%len(boundaries) != 0 {
				t.Errorf("%s: %d share rows, %d spans", w.name, len(rep.Shares), len(spans))
			}
		}
	}
}

// TestCorruptedOutputIsCounted is the harness's negative control: one
// flipped output byte per call must show up as failed operations.
func TestCorruptedOutputIsCounted(t *testing.T) {
	for _, w := range workloads {
		flip := func(o *op) {
			for i := 0; i < o.n; i++ {
				if blk := o.outBlock(i, (i+1)%o.n); len(blk) > 0 {
					blk[len(blk)/2] ^= 0x40
					return
				}
			}
		}
		b := smokeBudget(w)
		b.timed = 30 * time.Millisecond
		rep, _, err := runWorkload(w, 5, b, "0", flip, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		res := resultOf(rep)
		// Cold set-ups run without the hook; every warm-up and timed call
		// is corrupted.
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d with every output corrupted", w.name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestResultLine checks the driver's contract on the command itself:
// the last line of standard output is one JSON object with exactly the
// four keys, and bad flags fail without a result.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "index-small", "--seed", "9", "--seconds", "0.05", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result keys: %v", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if _, ok := m["value"].(float64); !ok || len(m) != 2 || m["unit"] == nil {
			t.Errorf("metric %s: %v, want exactly value and unit", name, m)
		}
	}
	if !strings.Contains(stdout.String(), "closed loop, 1 caller") || !strings.Contains(stdout.String(), "GOMAXPROCS") {
		t.Errorf("run header missing:\n%s", stdout.String())
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}} {
		stdout.Reset()
		if code := run(bad, &stdout, io.Discard); code == 0 || strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v: exit %d, output %q", bad, code, stdout.String())
		}
	}
}
