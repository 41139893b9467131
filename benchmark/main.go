// Command benchmark is the repository's benchmark: every performance
// claim cites its numbers (see BENCHMARK.json and README.md beside this
// file). It drives the public bruck API in a closed loop with one
// caller, verifies outputs, and prints every metric by name.
//
//	go run ./benchmark                        # all workloads, both passes
//	go run ./benchmark -workload index-small -seed 7 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// header records what a run ran on.
type header struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LLC        string  `json:"llc_size"`
	Seconds    float64 `json:"seconds"`
	Passes     string  `json:"passes"`
	Loop       string  `json:"loop"`
}

func newHeader(seed uint64, seconds float64) header {
	h := header{Commit: "unknown", Seed: seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", LLC: "unknown", Seconds: seconds,
		Passes: fmt.Sprintf("trace 0: >=20 cold set-ups, %.3gs timed in 10 windows, each on its own machine after a %.3gs verified warm-up; trace 1: %.3gs warm-up, %.3gs untraced, %.3gs traced, %.3gs of probes",
			seconds, seconds/100, seconds/10, seconds/5, seconds*0.3, seconds/2),
		Loop: "closed loop, 1 caller"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The last-level cache is the highest index the kernel lists.
	for i := 0; ; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		h.LLC = strings.TrimSpace(string(data))
	}
	return h
}

// reported is one metric in the JSON outputs.
type reported struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// workloadReport is one workload in the -out document.
type workloadReport struct {
	Name      string              `json:"name"`
	Why       string              `json:"why"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]reported `json:"end_to_end,omitempty"`
	PerLayer  map[string]reported `json:"per_layer,omitempty"`
	Shares    []share             `json:"shares,omitempty"`
}

func report(defs []metric, v values) map[string]reported {
	out := map[string]reported{}
	for _, m := range defs {
		out[m.name] = reported{Value: v[m.name].v, Unit: m.unit, Better: m.better, Bound: m.bound, Samples: v[m.name].n}
	}
	return out
}

// resultOf reduces a workload's report to the driver's contract: each
// measured metric with exactly its value and unit.
func resultOf(rep workloadReport) result {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]reported{}}
	for _, set := range []map[string]reported{rep.EndToEnd, rep.PerLayer} {
		for name, m := range set {
			res.Metrics[name] = reported{Value: m.Value, Unit: m.Unit}
		}
	}
	return res
}

// runWorkload measures one workload and prints its tables. trace is
// "0" (end to end, tracing off), "1" (per layer) or "both".
func runWorkload(w *workload, seed uint64, b budget, trace string, corrupt func(*op), text io.Writer) (workloadReport, []span, error) {
	rep := workloadReport{Name: w.name, Why: w.why}
	var spans []span
	fmt.Fprintf(text, "\n== %s (GOMAXPROCS %d): %s\n", w.name, w.procs, w.why)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	account := func(r *runner) {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(text, "first failure: %v\n", r.firstErr)
		}
	}
	if trace != "1" {
		v, r, err := endToEnd(w, seed, b, corrupt)
		if err != nil {
			return rep, nil, err
		}
		account(r)
		printMetrics(text, "end to end (tracing off)", endToEndMetrics, v)
		rep.EndToEnd = report(endToEndMetrics, v)
	}
	if trace != "0" {
		v, sp, r, err := perLayer(w, seed, b, corrupt)
		if err != nil {
			return rep, nil, err
		}
		account(r)
		spans = sp
		printMetrics(text, "per layer (timed from outside, back to back on the same inputs)", perLayerMetrics, v)
		rep.Shares = shareTable(w.name, v)
		printShares(text, rep.Shares, v["trace_overhead_ratio"].v)
		rep.PerLayer = report(perLayerMetrics, v)
	}
	rep.Correct = rep.Failed == 0
	return rep, spans, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: index-small, index-large, allreduce-large, mixed-serving or all")
	seed := fs.Uint64("seed", 1, "seed of payloads, rank relabelling, group subsets and op order")
	seconds := fs.Float64("seconds", 20, "length of the timed pass; the other phases scale with it")
	trace := fs.String("trace", "both", "0: end-to-end metrics with tracing off; 1: per-layer metrics and spans; both")
	out := fs.String("out", "", "write the header and every metric as JSON to this file")
	spansOut := fs.String("spans", "", "write the traced pass's spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds %v: want a positive length\n", *seconds)
		return 2
	}
	selected := workloads
	if *name != "all" {
		selected = []*workload{workloadNamed(*name)}
	}
	if selected[0] == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	h := newHeader(*seed, *seconds)
	fmt.Fprintf(stdout, "bruck benchmark: %s\ncommit %s  seed %d  nproc %d  GOMAXPROCS %d  %s\ncpu %s  LLC %s\npasses: %s\n",
		h.Loop, h.Commit, h.Seed, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.LLC, h.Passes)

	doc := struct {
		Header    header           `json:"header"`
		Workloads []workloadReport `json:"workloads"`
	}{Header: h}
	allSpans := map[string][]span{}
	status := 0
	for _, w := range selected {
		rep, spans, err := runWorkload(w, *seed, budgetFor(w, *seconds), *trace, nil, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !rep.Correct {
			status = 1
		}
		doc.Workloads = append(doc.Workloads, rep)
		allSpans[w.name] = spans
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *spansOut != "" {
		if err := writeJSON(*spansOut, allSpans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	// The driver reads the last line: one workload's result.
	line, err := json.Marshal(resultOf(doc.Workloads[len(doc.Workloads)-1]))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return status
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
