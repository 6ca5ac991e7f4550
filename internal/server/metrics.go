package server

import (
	"ftbfs"
	"ftbfs/internal/telemetry"
	"ftbfs/internal/wire"
)

// serverMetrics is the registry behind the shard's /metrics: request totals,
// per-route and per-frame-type latency histograms, and the queue-wait
// histogram that feeds Retry-After. Every pointer is resolved at New — the
// request path indexes arrays and maps built once, formatting nothing.
type serverMetrics struct {
	reg *telemetry.Registry

	requests     *telemetry.Counter // HTTP requests accepted
	wireRequests *telemetry.Counter // binary-protocol requests accepted
	queries      *telemetry.Counter // individual distance queries answered
	errs         *telemetry.Counter // requests answered with an error status
	shed         *telemetry.Counter // requests refused by the load shedder

	// wireByType is indexed by wire frame type (TDist..TMutate); unused slots
	// stay nil and OutcomeHist.Observe tolerates nil receivers.
	wireByType [wire.TMutate + 1]*telemetry.OutcomeHist

	// queueWait times requests that waited in the shedder's bounded queue
	// (the fast no-queue path records nothing); its live p50 derives the
	// Retry-After answer on shed responses.
	queueWait *telemetry.Histogram
}

// wireTypeNames label the wire request histograms; index = frame type.
var wireTypeNames = [wire.TMutate + 1]string{
	wire.TDist:               "dist",
	wire.TDistAvoiding:       "dist_avoiding",
	wire.TDistAvoidingVertex: "dist_avoiding_vertex",
	wire.TBatch:              "batch",
	wire.TMutate:             "mutate",
}

// newServerMetrics builds the shard registry, pre-registering one histogram
// per frame type and adopting the process-wide query-plan counters as
// snapshot-time funcs; the edge registers one histogram per route (route).
func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.Counter("ftbfs_requests_total", `transport="http"`,
			"Requests accepted, by transport."),
		wireRequests: reg.Counter("ftbfs_requests_total", `transport="wire"`,
			"Requests accepted, by transport."),
		queries: reg.Counter("ftbfs_queries_total", "",
			"Individual distance queries answered."),
		errs: reg.Counter("ftbfs_request_errors_total", "",
			"Requests answered with an error status."),
		shed: reg.Counter("ftbfs_shed_total", "",
			"Requests refused by the load shedder."),
		queueWait: reg.Histogram("ftbfs_queue_wait_seconds", "",
			"Time requests waited in the shedder queue before a work slot freed."),
	}
	for typ, name := range wireTypeNames {
		if name == "" {
			continue
		}
		m.wireByType[typ] = reg.OutcomeHist("ftbfs_wire_request_seconds",
			`type="`+name+`"`, "Wire request latency by frame type and outcome.")
	}
	planCount := func(pick func(eh, er, vh, vr uint64) uint64) func() uint64 {
		return func() uint64 { return pick(ftbfs.PlanQueryCounts()) }
	}
	const planHelp = "Failure queries by answer path: O(1) plan hits vs subtree repairs."
	reg.CounterFunc("ftbfs_plan_queries_total", `model="edge",path="hit"`, planHelp,
		planCount(func(eh, _, _, _ uint64) uint64 { return eh }))
	reg.CounterFunc("ftbfs_plan_queries_total", `model="edge",path="repair"`, planHelp,
		planCount(func(_, er, _, _ uint64) uint64 { return er }))
	reg.CounterFunc("ftbfs_plan_queries_total", `model="vertex",path="hit"`, planHelp,
		planCount(func(_, _, vh, _ uint64) uint64 { return vh }))
	reg.CounterFunc("ftbfs_plan_queries_total", `model="vertex",path="repair"`, planHelp,
		planCount(func(_, _, _, vr uint64) uint64 { return vr }))
	return m
}

// route registers the latency histogram of one HTTP route
// (EdgeOptions.Route).
func (m *serverMetrics) route(path string) *telemetry.OutcomeHist {
	return m.reg.OutcomeHist("ftbfs_http_request_seconds",
		`route="`+path+`"`, "HTTP request latency by route and outcome.")
}
