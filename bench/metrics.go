package main

import (
	"strings"

	"graphalytics/internal/algorithms"
)

// The four workloads. Names are final: later issues cite them.
const (
	wlLoad    = "load"
	wlKernels = "kernels"
	wlSuite   = "suite"
	wlDaemon  = "daemon"
)

var workloadNames = []string{wlLoad, wlKernels, wlSuite, wlDaemon}

// workloadWhy is the one-line reason each workload exists, as recorded in
// BENCHMARK.json.
var workloadWhy = map[string]string{
	wlLoad:    "graph construction and snapshot I/O do all the work and kernels none: where a builder, external-sort, snapshot-format or store change shows",
	wlKernels: "one large resident graph, compute only: par, algorithms, mplane and engines do all the work; store, plan, archive and service none",
	wlSuite:   "the user's end to end: spec in, sealed commit root out over the whole catalog and all seven engines, cold and warm cache",
	wlDaemon:  "many tiny runs through HTTP: submit, scheduling, SSE and per-run seal dominate and kernels are nothing, the mirror of kernels",
}

// metricDef declares one metric. This table is the single source of
// truth; BENCHMARK.json restates it and bench_test.go keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression; 0 on per-layer
	// metrics, which are reported and never gated.
	Bound float64
	// Workloads lists who measures it; nil means every workload. A
	// per-layer metric reads 0 on a workload that does not exercise it.
	Workloads []string
}

func (d metricDef) measuredBy(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the gated metrics. Every run reports every one of them,
// so each is defined for every workload; README.md has the table of what
// the headline operation and the unit of work are on each. The bounds are
// the widest the contract allows: on the shared 2-core sandbox the same
// code drifts by 5-15 % between runs minutes apart (README.md, Noise), and
// a bound must be about three times the spread it is checked against.
var endToEnd = []metricDef{
	// Untimed preparation before the first timed call: graph generation
	// and oracles, goldens, cache priming, server boot. Median of
	// sizes.setups repetitions.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median wall of the workload's headline operation: load = edge
	// stream to heap graph, kernels = one native Execute of each of the
	// six algorithms, suite = a warm pass spec to root, daemon = submit
	// to run-finished.
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// Work completed per second of the timed window: load = edges made
	// queryable, kernels = vertices+edges processed (EVPS), suite = jobs,
	// daemon = runs.
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// algoKeys are the lower-case algorithm names used inside metric names.
var algoKeys = func() []string {
	var out []string
	for _, a := range algorithms.All {
		out = append(out, strings.ToLower(string(a)))
	}
	return out
}()

// engineNames are the seven registered engines.
var engineNames = []string{"dataflow", "gas", "native", "pregel", "pushpull", "spmv-d", "spmv-s"}

// breakdownLayers are the layers a span can be charged to, i.e. the rows
// of the Table-8-style breakdown besides "unattributed".
var breakdownLayers = []string{"graph500", "graph", "algorithms", "platforms", "validation", "workload", "core", "archive", "service"}

// perLayer are the traced run's metrics: first the named numbers each
// workload's end-to-end metrics are made of, then one group per layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string, workloads ...string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Workloads: workloads})
	}
	lower, higher := "lower", "higher"

	// What a user sees on each workload (also printed by untraced runs).
	add("build_heap_s", "s", lower, wlLoad)
	add("build_streamed_s", "s", lower, wlLoad)
	add("reopen_heap_ms", "ms", lower, wlLoad)
	for _, a := range algoKeys {
		add("exec_"+a+"_ms", "ms", lower, wlKernels)
	}
	add("cold_spec_to_root_s", "s", lower, wlSuite)
	add("warm_spec_to_root_s", "s", lower, wlSuite)
	add("run_p50_ms", "ms", lower, wlDaemon)
	add("runs_per_s", "1/s", higher, wlDaemon)

	// The breakdown: per traced operation, seconds charged to each layer.
	for _, l := range breakdownLayers {
		add("self."+l+"_s", "s", lower)
	}
	add("self.unattributed_s", "s", lower)
	add("trace_overhead_pct", "%", lower)
	add("process.peak_rss_mb", "MB", lower)

	// graph500, graph, par, graphstore: measured by load.
	add("graph500.into_s", "s", lower, wlLoad)
	add("graph.build_s", "s", lower, wlLoad)
	add("graph.build_allocs", "count", lower, wlLoad)
	add("graph.build_alloc_mb", "MB", lower, wlLoad)
	add("graph.buildto_s", "s", lower, wlLoad)
	add("graph.buildto_allocs", "count", lower, wlLoad)
	add("graph.buildto_alloc_mb", "MB", lower, wlLoad)
	add("graph.snapshot_write_ms", "ms", lower, wlLoad)
	add("graph.snapshot_write_mb_per_s", "MB/s", higher, wlLoad)
	add("graph.map_open_us", "us", lower, wlLoad)
	add("graph.map_verified_ms", "ms", lower, wlLoad)
	add("graph.mapped_first_touch_ms", "ms", lower, wlLoad)
	add("graph.bytes_per_edge", "count", lower, wlLoad)
	add("par.sort_int64s_ms", "ms", lower, wlLoad)
	add("graphstore.get_built_ms", "ms", lower, wlLoad)
	add("graphstore.get_snapshot_ms", "ms", lower, wlLoad)
	add("graphstore.get_snapshot_mapped_ms", "ms", lower, wlLoad)
	add("graphstore.get_memory_ns", "ns", lower, wlLoad)
	add("graphstore.evict_reload_ms", "ms", lower, wlLoad)

	// algorithms, platforms, mplane, par, validation: measured by kernels.
	for _, a := range algoKeys {
		add("algorithms."+a+".wP_ms", "ms", lower, wlKernels)
		add("algorithms."+a+".w1_ms", "ms", lower, wlKernels)
		add("algorithms."+a+".mapped_wP_ms", "ms", lower, wlKernels)
	}
	add("algorithms.oracle_s", "s", lower, wlKernels)
	add("platforms.native.pr.allocs", "count", lower, wlKernels)
	add("platforms.pregel.upload_ms", "ms", lower, wlKernels)
	for _, a := range algoKeys {
		if a != "lcc" {
			add("platforms.pregel."+a+".exec_ms", "ms", lower, wlKernels)
		}
	}
	add("platforms.pregel.pr.allocs", "count", lower, wlKernels)
	add("platforms.gas.upload_ms", "ms", lower, wlKernels)
	add("platforms.gas.pr.exec_ms", "ms", lower, wlKernels)
	add("platforms.gas.cdlp.exec_ms", "ms", lower, wlKernels)
	add("mplane.scatter_ns_per_msg", "ns", lower, wlKernels)
	add("mplane.slots_put_ns_per_msg", "ns", lower, wlKernels)
	add("mplane.labelcounts_ns_per_add", "ns", lower, wlKernels)
	add("par.sum_blocked_ms", "ms", lower, wlKernels)
	add("par.chunks_dispatch_us", "us", lower, wlKernels)
	add("validation.validate_ms", "ms", lower, wlKernels)

	// core, workload, graphstore hits, engines, archive: measured by suite.
	add("core.compile_ms", "ms", lower, wlSuite)
	add("core.runplan_s", "s", lower, wlSuite)
	add("core.upload_s", "s", lower, wlSuite)
	add("core.uploads_performed", "count", lower, wlSuite)
	add("core.job_residual_s", "s", lower, wlSuite)
	add("core.worker_idle_share", "ratio", lower, wlSuite)
	add("core.sink_jsonl_us_per_result", "us", lower, wlSuite)
	add("workload.materialize_built_s", "s", lower, wlSuite)
	add("workload.materialize_snapshot_s", "s", lower, wlSuite)
	add("graphstore.hits_built", "count", lower, wlSuite)
	add("graphstore.hits_snapshot", "count", higher, wlSuite)
	add("graphstore.hits_memory", "count", higher, wlSuite)
	for _, e := range engineNames {
		add("platforms."+e+".makespan_s", "s", lower, wlSuite)
	}
	for _, a := range algoKeys {
		add("core.algo."+a+".makespan_s", "s", lower, wlSuite)
	}
	add("algorithms.reference_catalog_s", "s", lower, wlSuite)
	add("validation.validate_catalog_ms", "ms", lower, wlSuite)
	add("archive.seal_ms", "ms", lower, wlSuite)
	add("archive.kb_per_commit", "KB", lower, wlSuite)
	add("archive.verify_ms", "ms", lower, wlSuite, wlDaemon)
	add("archive.report_ms", "ms", lower, wlSuite)

	// service: measured by daemon.
	for _, n := range []string{"submit_ms", "first_event_ms", "queue_wait_ms", "execute_ms", "seal_ms", "results_stream_ms", "archive_get_ms", "run_p95_ms", "run_p99_ms"} {
		add("service."+n, "ms", lower, wlDaemon)
	}
	add("service.sse_lag_us", "us", lower, wlDaemon)
	add("service.events_per_run", "count", lower, wlDaemon)
	add("service.events_dropped", "count", lower, wlDaemon)
	add("service.rejected_429", "count", lower, wlDaemon)
	add("service.heap_kb_per_run", "KB", lower, wlDaemon)
	add("service.goroutines_delta", "count", lower, wlDaemon)
	return out
}

// metricByName indexes both tables.
var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()
