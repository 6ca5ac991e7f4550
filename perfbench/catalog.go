package main

// The catalog lists what the benchmark measures: every workload with the
// reason it exists, and every metric with its unit and better direction.
// The JSON result line is checked against it, and the self-check test holds
// BENCHMARK.json and README.md, which maps each layer metric to the
// end-to-end metric it should move, to the same list.

// workloadDef is one traffic mix.
type workloadDef struct {
	name string
	why  string
}

var workloads = []workloadDef{
	{"point-mix", "routed point queries at <1 us of plan work behind ~170 us of routing, HTTP and wire transport, so cluster, wire and the HTTP edge dominate"},
	{"whatif-batch", "256-slot /batch-query vectors where per-slot JSON, scatter into per-shard wire sub-batches, grouping and subtree repairs dominate"},
	{"churn", "a point reader beside a writer looping delta /mutate, full-rebuild /mutate and cold /build, so the build stack and the swap compete with reads"},
}

// metricDef is one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the untraced run's metrics. Every workload reports every one:
// a "read" is the workload's own request — one routed point query on
// point-mix and churn, one 256-slot /batch-query on whatif-batch — and the
// _rel figures divide the read's median latency or CPU by the echo's,
// measured in alternating slices of the same phase.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"read_p50_rel", "x", "lower"},
	{"read_cpu_rel", "x", "lower"},
	{"backup_edges", "edges", "lower"},
	{"structure_edges", "edges", "lower"},
}

// perLayer are the traced run's metrics. Point cuts replay the fixture's
// point stream and batch cuts its batch stream, one call at a time against
// the key's primary owner; write cuts replay the churn writer on a private
// store; counter ratios cover the workload's own traced closed loop.
var perLayer = []metricDef{
	{"http.point_us", "us", "lower"},
	{"http.point_self_us", "us", "lower"},
	{"cluster.point_us", "us", "lower"},
	{"cluster.point_self_us", "us", "lower"},
	{"cluster.point_allocs", "allocs/op", "lower"},
	{"http.batch_ms", "ms", "lower"},
	{"http.batch_self_ms", "ms", "lower"},
	{"cluster.batch_ms", "ms", "lower"},
	{"cluster.batch_self_ms", "ms", "lower"},
	{"cluster.batch_allocs", "allocs/op", "lower"},
	{"cluster.subbatches_per_batch", "count", "lower"},
	{"cluster.max_shard_slots", "slots", "lower"},
	{"cluster.hedges_per_1k", "per-1k", "lower"},
	{"cluster.wire_fallbacks_per_1k", "per-1k", "lower"},
	{"cluster.failovers_per_1k", "per-1k", "lower"},
	{"cluster.mutate_shards", "shards", "lower"},
	{"wire.point_us", "us", "lower"},
	{"wire.point_self_us", "us", "lower"},
	{"wire.batch_us", "us", "lower"},
	{"wire.batch_self_us", "us", "lower"},
	{"server.point_ns", "ns", "lower"},
	{"server.point_self_ns", "ns", "lower"},
	{"server.point_allocs", "allocs/op", "lower"},
	{"server.batch_us", "us", "lower"},
	{"server.batch_self_us", "us", "lower"},
	{"server.http_point_us", "us", "lower"},
	{"server.shed_per_1k", "per-1k", "lower"},
	{"store.point_ns", "ns", "lower"},
	{"store.point_self_ns", "ns", "lower"},
	{"store.mutate_delta_ms", "ms", "lower"},
	{"store.mutate_full_ms", "ms", "lower"},
	{"store.build_many_ms", "ms", "lower"},
	{"store.swap_us", "us", "lower"},
	{"store.hit_share", "ratio", "higher"},
	{"store.delta_share", "ratio", "higher"},
	{"ftbfs.point_ns", "ns", "lower"},
	{"ftbfs.point_allocs", "allocs/op", "lower"},
	{"ftbfs.batch_us", "us", "lower"},
	{"ftbfs.repair_share", "ratio", "lower"},
	{"ftbfs.graph_mutate_us", "us", "lower"},
	{"ftbfs.delta_rebuild_us", "us", "lower"},
	{"batch.build_ms", "ms", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"core.reinforced_edges", "edges", "lower"},
	{"vertexft.build_ms", "ms", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.allocs_per_op", "allocs/op", "lower"},
	{"trace_overhead_share", "ratio", "lower"},
}

// workloadByName returns the named workload definition.
func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// unitOf returns the unit of a cataloged metric.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
