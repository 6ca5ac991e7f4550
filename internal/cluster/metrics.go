package cluster

import (
	"sync"
	"time"

	"ftbfs/internal/telemetry"
)

// routerMetrics is the registry behind the router's /metrics: routing
// counters (hedges, failovers, breaker activity, wire transport faults),
// per-route request histograms, and per-replica latency histograms. Every
// counter pointer is resolved once at NewRouter; /stats reconstructs its
// legacy JSON shape from these same series, keeping the registry the single
// source of truth.
type routerMetrics struct {
	reg *telemetry.Registry

	requests        *telemetry.Counter // HTTP requests accepted
	points          *telemetry.Counter // point queries routed (/dist, /dist-avoiding*)
	batches         *telemetry.Counter // /batch-query vectors routed
	batchQueries    *telemetry.Counter // individual batch query slots routed
	builds          *telemetry.Counter // /build fan-outs executed
	buildsCoalesced *telemetry.Counter // /build requests that shared another's flight

	// Live-graph convergence ledger: one fan-out mutates every shard holding
	// the lineage, and the rebuild counters aggregate the shards' replies so
	// /stats shows how much of the fleet's rebuild work rode the delta path.
	mutations          *telemetry.Counter // /mutate fan-outs executed
	mutationsCoalesced *telemetry.Counter // /mutate requests that shared another's flight
	mutationShards     *telemetry.Counter // shard mutations applied across all fan-outs
	mutationsDelta     *telemetry.Counter // shard structure rebuilds carried by the delta path
	mutationsFull      *telemetry.Counter // shard structure rebuilds done from scratch
	hedges             *telemetry.Counter // hedge timers that fired a second replica
	failovers          *telemetry.Counter // replica retries after a failed attempt
	wirePoints         *telemetry.Counter // point attempts answered by a shard
	wireBatches        *telemetry.Counter // sub-batches answered by a shard
	wireMutations      *telemetry.Counter // shard mutations answered by a shard
	wireFallbacks      *telemetry.Counter // wire transport faults, each a failed attempt
	breakerSkips       *telemetry.Counter // attempts not sent because a replica's breaker was open
	breakerForced      *telemetry.Counter // attempts forced through despite every breaker being open
	errs               *telemetry.Counter // requests answered with an error status

	rebalances      *telemetry.Counter // AddShard/DrainShard lifecycles run
	rangesPending   *telemetry.Gauge   // keys computed to move, pull not yet finished
	rangesMoved     *telemetry.Counter // keys whose pull finished
	structuresMoved *telemetry.Counter // structures installed by driven handoff pulls
	bytesMoved      *telemetry.Counter // record bytes moved by driven pulls
	hotPromotions   *telemetry.Counter // keys promoted to R+k replication

	// replicaMu guards replicaHist, keyed {member ID, transport}. Replica
	// observation happens on the attempt path, which already pays a wire or
	// HTTP round trip, so a mutexed map lookup is noise there.
	replicaMu   sync.Mutex
	replicaHist map[[2]string]*telemetry.Histogram
}

// newRouterMetrics builds the router registry. Breaker state and shard
// residency are read from the membership at snapshot time rather than
// counted on the request path; the edge registers one histogram per route
// (route).
func newRouterMetrics(m *Membership) *routerMetrics {
	reg := telemetry.NewRegistry()
	c := func(name, help string) *telemetry.Counter { return reg.Counter(name, "", help) }
	rm := &routerMetrics{
		reg:             reg,
		requests:        c("ftbfs_router_requests_total", "HTTP requests accepted by the router."),
		points:          c("ftbfs_router_point_queries_total", "Point queries routed."),
		batches:         c("ftbfs_router_batches_total", "Batch query vectors routed."),
		batchQueries:    c("ftbfs_router_batch_queries_total", "Individual batch query slots routed."),
		builds:          c("ftbfs_router_builds_total", "Build fan-outs executed."),
		buildsCoalesced: c("ftbfs_router_builds_coalesced_total", "Build requests that shared another request's fan-out."),
		hedges:          c("ftbfs_router_hedges_total", "Hedge timers that fired a second replica."),
		failovers:       c("ftbfs_router_failovers_total", "Replica retries after a failed attempt."),
		wirePoints: reg.Counter("ftbfs_router_wire_requests_total", `kind="point"`,
			"Shard requests answered over the binary protocol."),
		wireBatches: reg.Counter("ftbfs_router_wire_requests_total", `kind="batch"`,
			"Shard requests answered over the binary protocol."),
		wireMutations: reg.Counter("ftbfs_router_wire_requests_total", `kind="mutate"`,
			"Shard requests answered over the binary protocol."),
		mutations:          c("ftbfs_router_mutations_total", "Mutation fan-outs executed."),
		mutationsCoalesced: c("ftbfs_router_mutations_coalesced_total", "Mutation requests that shared another request's fan-out."),
		mutationShards:     c("ftbfs_router_mutation_shards_total", "Shard generation swaps applied across all mutation fan-outs."),
		mutationsDelta: reg.Counter("ftbfs_router_mutation_rebuilds_total", `kind="delta"`,
			"Fleet structure rebuilds on mutation, by rebuild kind."),
		mutationsFull: reg.Counter("ftbfs_router_mutation_rebuilds_total", `kind="full"`,
			"Fleet structure rebuilds on mutation, by rebuild kind."),
		wireFallbacks: c("ftbfs_router_wire_fallbacks_total", "Wire transport faults; each fails its attempt over to the next replica."),
		breakerSkips:  c("ftbfs_router_breaker_skips_total", "Attempts skipped because a replica's breaker was open."),
		breakerForced: c("ftbfs_router_breaker_forced_total", "Attempts forced through despite every breaker being open."),
		errs:          c("ftbfs_router_errors_total", "Requests answered with an error status."),

		rebalances: c("ftbfs_router_rebalances_total", "Shard add/drain rebalance lifecycles run."),
		rangesPending: reg.Gauge("ftbfs_router_ranges_pending", "",
			"Key ranges computed to move whose pull has not finished."),
		rangesMoved:     c("ftbfs_router_ranges_moved_total", "Key ranges whose rebalance pull finished."),
		structuresMoved: c("ftbfs_router_structures_transferred_total", "Structures installed by driven handoff pulls."),
		bytesMoved:      c("ftbfs_router_bytes_moved_total", "Record bytes moved by driven handoff pulls."),
		hotPromotions:   c("ftbfs_router_hot_promotions_total", "Keys promoted to widened replication."),

		replicaHist: make(map[[2]string]*telemetry.Histogram),
	}
	reg.GaugeFunc("ftbfs_router_shards", "", "Joined shards.", func() int64 {
		return int64(len(m.Members()))
	})
	reg.GaugeFunc("ftbfs_router_healthy_shards", "", "Joined shards currently healthy.", func() int64 {
		return int64(m.HealthyCount())
	})
	reg.CounterFunc("ftbfs_router_breaker_opens_total", "",
		"Lifetime circuit-breaker trips summed across replicas.", func() uint64 {
			var total uint64
			for _, mem := range m.Members() {
				_, opens := mem.breakerSnapshot()
				total += opens
			}
			return total
		})
	return rm
}

// route registers the latency histogram of one router route
// (server.EdgeOptions.Route).
func (rm *routerMetrics) route(path string) *telemetry.OutcomeHist {
	return rm.reg.OutcomeHist("ftbfs_router_http_request_seconds",
		`route="`+path+`"`, "Router request latency by route and outcome.")
}

// observeReplica records one shard attempt's round-trip latency under the
// replica's ID and transport. Histograms register lazily on a replica's
// first attempt, so joins and leaves need no registry bookkeeping.
func (rm *routerMetrics) observeReplica(id, transport string, d time.Duration) {
	key := [2]string{id, transport}
	rm.replicaMu.Lock()
	h := rm.replicaHist[key]
	if h == nil {
		h = rm.reg.Histogram("ftbfs_router_replica_seconds",
			`replica="`+id+`",transport="`+transport+`"`,
			"Shard attempt round-trip latency by replica and transport.")
		rm.replicaHist[key] = h
	}
	rm.replicaMu.Unlock()
	h.Observe(d)
}
