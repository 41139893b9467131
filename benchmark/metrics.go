package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// metric describes one reported number. BENCHMARK.json repeats name,
// unit, better and (end to end) bound; the harness's test keeps the two
// in step.
type metric struct {
	name, unit, better string
	bound              float64 // end to end: share of the parent's median it may worsen by
	moves              string  // per layer: the end-to-end metric it should move, and where
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a caller of the library sees, measured with
// tracing off. The counts repeat to a fraction of a percent and keep the
// issue's bounds. The timed metrics get the widest bound the contract
// allows: on the shared two-CPU host this was written on, ten 20 s runs
// of the bandwidth-bound workloads spread up to 16% (quartile distance
// over median) however they were summarised, and a bound under the
// spread rejects changes that did nothing.
var endToEndMetrics = []metric{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: lower, bound: 0.25},
	{name: "goodput_gb_per_s", unit: "GB/s", better: higher, bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: lower, bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: lower, bound: 0.02},
	{name: "alloc_kb_per_op", unit: "KiB", better: lower, bound: 0.02},
	{name: "heap_live_mb", unit: "MiB", better: lower, bound: 0.10},
}

// perLayerMetrics are single layers timed from outside, at the owning
// workload's n, k and sizes.
var perLayerMetrics = []metric{
	{name: "mpsim.run_empty_us", unit: "us", better: lower, moves: "latency_p50_us on index-small; nothing on the -large workloads"},
	{name: "mpsim.run_empty_allocs", unit: "count", better: lower, moves: "allocs_per_op on index-small"},
	{name: "mpsim.msg_us.chan", unit: "us", better: lower, moves: "latency_p50_us on index-small, mixed-serving"},
	{name: "mpsim.msg_us.slot", unit: "us", better: lower, moves: "nothing yet: no workload runs the slot transport"},
	{name: "mpsim.msg_allocs", unit: "count", better: lower, moves: "allocs_per_op on index-small, mixed-serving"},
	{name: "mpsim.msg_gb_per_s.chan", unit: "GB/s", better: higher, moves: "goodput_gb_per_s on index-large, allreduce-large"},
	{name: "mpsim.msg_gb_per_s.slot", unit: "GB/s", better: higher, moves: "nothing yet: no workload runs the slot transport"},
	{name: "mpsim.kport_fan_us", unit: "us", better: lower, moves: "latency_p50_us on mixed-serving (k=2)"},
	{name: "mpsim.replay_us", unit: "us", better: lower, moves: "latency_p50_us everywhere: the engine+transport share of one op"},
	{name: "mpsim.pool_growth_kb_per_op", unit: "KiB", better: lower, moves: "heap_live_mb wherever ranks receive more than they send; the shapes are kept out of the timed mix until this is 0"},
	{name: "mpsim.messages_per_op", unit: "count", better: lower, moves: "exact count; scales mpsim.msg_us into latency"},
	{name: "mpsim.bytes_per_op", unit: "B", better: lower, moves: "exact count; scales mpsim.msg_gb_per_s into goodput"},
	{name: "buffers.working_set_mb", unit: "MiB", better: lower, moves: "input plus output bytes of every slot; read buffers.copy_gb_per_s against it and the header's LLC"},
	{name: "buffers.copy_gb_per_s", unit: "GB/s", better: higher, moves: "the host's copy rate at half the working set (a cache rate when that fits the LLC); moves nothing"},
	{name: "buffers.rotate_gb_per_s", unit: "GB/s", better: higher, moves: "goodput_gb_per_s on index-large"},
	{name: "buffers.combine_gb_per_s", unit: "GB/s", better: higher, moves: "goodput_gb_per_s on allreduce-large only"},
	{name: "buffers.combine_us", unit: "us", better: lower, moves: "latency_p50_us on allreduce-large only (0 on workloads without a kernel)"},
	{name: "buffers.pack_gb_per_s", unit: "GB/s", better: higher, moves: "mixed-serving class ragged"},
	{name: "buffers.unpack_gb_per_s", unit: "GB/s", better: higher, moves: "mixed-serving class ragged"},
	{name: "buffers.adapter_us", unit: "us", better: lower, moves: "mixed-serving class slice-api"},
	{name: "collective.execute_us", unit: "us", better: lower, moves: "latency_p50_us everywhere"},
	{name: "collective.execute_allocs", unit: "count", better: lower, moves: "allocs_per_op everywhere"},
	{name: "collective.self_us", unit: "us", better: lower, moves: "latency_p50_us everywhere: pack, unpack, rotate, combine, body bookkeeping"},
	{name: "collective.compile_us", unit: "us", better: lower, moves: "setup_s everywhere; ops_per_s on mixed-serving (cache misses)"},
	{name: "collective.compile_allocs", unit: "count", better: lower, moves: "allocs_per_op on mixed-serving"},
	{name: "collective.cache_hit_ns", unit: "ns", better: lower, moves: "latency_p50_us on index-small, mixed-serving"},
	{name: "collective.optimal_radix_us", unit: "us", better: lower, moves: "ops_per_s on mixed-serving class index-tuned"},
	{name: "collective.c1_rounds", unit: "count", better: lower, moves: "collective.model_time_us"},
	{name: "collective.c2_bytes", unit: "B", better: lower, moves: "collective.model_time_us"},
	{name: "collective.c1_over_bound", unit: "ratio", better: lower, moves: "collective.model_time_us"},
	{name: "collective.c2_over_bound", unit: "ratio", better: lower, moves: "collective.model_time_us"},
	{name: "collective.model_time_us", unit: "model_us", better: lower, moves: "the paper's own metric T = C1*beta + C2*tau, exact; not a measured time"},
	{name: "bruck.facade_self_us", unit: "us", better: lower, moves: "latency_p50_us on index-small, mixed-serving"},
	{name: "bruck.newmachine_us", unit: "us", better: lower, moves: "setup_s"},
	{name: "bruck.call_p99_us", unit: "us", better: lower, moves: "tail of latency; too unsteady to bound"},
	{name: "bruck.samples", unit: "count", better: higher, moves: "sample count behind bruck.call_p99_us"},
	{name: "bruck.failed_ops_ratio", unit: "ratio", better: lower, moves: "must stay 0"},
	{name: "bruck.mixed.concat_p50_us", unit: "us", better: lower, moves: "mixed-serving only (0 elsewhere)"},
	{name: "bruck.mixed.index-tuned_p50_us", unit: "us", better: lower, moves: "mixed-serving only (0 elsewhere)"},
	{name: "bruck.mixed.ragged_p50_us", unit: "us", better: lower, moves: "mixed-serving only (0 elsewhere)"},
	{name: "bruck.mixed.hier_p50_us", unit: "us", better: lower, moves: "mixed-serving only (0 elsewhere)"},
	{name: "bruck.mixed.ephemeral-group_p50_us", unit: "us", better: lower, moves: "mixed-serving only (0 elsewhere)"},
	{name: "bruck.mixed.slice-api_p50_us", unit: "us", better: lower, moves: "mixed-serving only (0 elsewhere)"},
	{name: "partition.solve_us", unit: "us", better: lower, moves: "setup_s; mixed-serving misses"},
	{name: "circulant.buildtree_us", unit: "us", better: lower, moves: "setup_s; mixed-serving misses"},
	{name: "blocks.layout_digest_ns", unit: "ns", better: lower, moves: "mixed-serving class ragged (paid on every V call)"},
	{name: "trace_overhead_ratio", unit: "ratio", better: lower, moves: "traced over untraced call median, same pass"},
}

// share is one row of the share table: a layer's part of the traced
// call's median, and the limit the workload was sized to meet.
type share struct {
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
	Limit string  `json:"limit,omitempty"`
	Met   bool    `json:"met"`
}

// shareLimits are the shares each workload exists to show; a workload
// that misses one no longer stresses the layer it was chosen for.
var shareLimits = map[string]map[string]struct {
	atLeast bool
	limit   float64
}{
	"index-small":     {"mpsim": {true, 0.50}, "collective.self+buffers": {false, 0.25}},
	"index-large":     {"collective.self+buffers": {true, 0.50}},
	"allreduce-large": {"mpsim": {false, 0.15}, "buffers.combine": {true, 0.50}},
}

// shareTable splits the traced call's median between the layers. Each
// layer's self time is its boundary's median minus the one below it.
func shareTable(workload string, v values) []share {
	call := v["bruck.facade_self_us"].v + v["collective.execute_us"].v
	rows := []share{
		{Layer: "bruck.facade", Share: v["bruck.facade_self_us"].v / call},
		{Layer: "collective.self+buffers", Share: v["collective.self_us"].v / call},
		{Layer: "buffers.combine", Share: v["buffers.combine_us"].v / call},
		{Layer: "mpsim", Share: v["mpsim.replay_us"].v / call},
		{Layer: "mpsim.run_empty", Share: v["mpsim.run_empty_us"].v / call},
	}
	for i := range rows {
		rows[i].Met = true
		if lim, ok := shareLimits[workload][rows[i].Layer]; ok {
			rows[i].Limit = fmt.Sprintf("<= %.0f%%", 100*lim.limit)
			rows[i].Met = rows[i].Share <= lim.limit
			if lim.atLeast {
				rows[i].Limit = fmt.Sprintf(">= %.0f%%", 100*lim.limit)
				rows[i].Met = rows[i].Share >= lim.limit
			}
		}
	}
	return rows
}

func arrow(better string) string {
	if better == higher {
		return "higher is better"
	}
	return "lower is better"
}

// printMetrics writes one table of metrics by name with value, unit,
// direction and sample count.
func printMetrics(w io.Writer, title string, defs []metric, v values) {
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range defs {
		val, ok := v[m.name]
		if !ok {
			continue
		}
		extra := m.moves
		if m.bound > 0 {
			extra = fmt.Sprintf("bound %.0f%%", 100*m.bound)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\tn=%d\t%s\n", m.name, val.v, m.unit, arrow(m.better), val.n, extra)
	}
	tw.Flush()
}

func printShares(w io.Writer, rows []share, overhead float64) {
	fmt.Fprintf(w, "\nshare of the traced call's median (buffers.combine is part of collective.self+buffers, mpsim.run_empty part of mpsim)\n")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, r := range rows {
		verdict := ""
		if r.Limit != "" {
			verdict = "want " + r.Limit + ": met"
			if !r.Met {
				verdict = "want " + r.Limit + ": NOT MET"
			}
		}
		fmt.Fprintf(tw, "  %s\t%.1f%%\t%s\n", r.Layer, 100*r.Share, verdict)
	}
	tw.Flush()
	fmt.Fprintf(w, "  layer self times sum to the traced call's median, which is %.3f of the untraced calls' median in the same pass\n", overhead)
}
