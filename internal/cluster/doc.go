// Package cluster shards the FT-BFS serving plane across many shard nodes:
// a consistent-hash ring over the structure keyspace, replicated shard
// ownership, membership with health probes, and a router that proxies the
// full query surface (/build, /dist, /dist-avoiding, /batch-query, /stats)
// to the owning shards — hedged reads across replicas for point queries,
// scatter-gather of multi-structure /batch-query vectors in per-shard
// sub-batches, placed by unit (the slots of one structure that fail one
// edge or vertex, which a shard answers from one subtree repair), and a
// single-flight /build that runs each structure's construction once, on one
// owner, while the other owners install its record over the handoff path.
//
// # One HTTP edge
//
// HTTP/JSON is the edge, written once in internal/server (server.Edge) and
// served by both tiers: the body bound, the deadline budget, tracing, status
// capture with per-route histograms, and the /build, /mutate, point and
// /batch-query handlers, which answer through a four-method server.Backend
// (Point, Batch, Mutate, Build) taking requests in wire form. A shard's
// backend is its store; the Router is a backend over its shards: Point is
// hedgedDo, Batch the unit-placing scatter rounds, Mutate and Build the
// single-flight fan-outs, whose waiters share a typed result (a value, or the
// *wire.Error refusal). So on every shared endpoint the router answers
// exactly what a single node would by construction, malformed requests and
// refusals included: a deterministic 4xx that no shard applied is relayed
// as the shard worded it, and the cluster's own wrapper is kept for
// gateway faults and partial application. The router adds only /stats,
// /healthz, /readyz, /metrics and /metrics/fleet; it does not shed load.
//
// # One internal transport
//
// Every point query, batch and mutation reaches the shards over the binary
// protocol only. A shard's batch slots ship in frames of at most
// wire.MaxBatchSlots. The three wire fan-outs — hedged point attempts, a
// batch round's sub-batches, a mutation sent to every member — share one
// collect loop: each starts its attempts as pipelined calls on one
// wire.Collector and settles their typed results (a distance or an
// in-protocol *wire.Error, or a transport error) on the request goroutine as
// they arrive, through one scoring path (Router.settle); no goroutine is
// spawned per attempt. A transport fault (dead listener, corrupted frame, a
// member whose wire address no probe has learned yet) is a failed attempt:
// it strikes the replica's breaker, counts in wire_fallbacks, and the
// request moves to the next replica; one too large for a frame
// (wire.ErrFrameTooLarge) strikes none. Shards must serve the protocol: the
// router learns each one's address from /readyz probes (one sweep before
// `ftbfs route` serves) and AddShard refuses a shard without one; a probe
// that learns a new address retires the old client, whose calls in flight
// still finish. Structure records and graph texts move shard to shard over
// the protocol too, and only over it. HTTP stays the control and ops plane —
// /build fan-out, the one remaining goroutine-per-member fan-out, /stats,
// /metrics.json, /handoff/keys and /handoff/pull, and /readyz probes.
//
// Routing hashes exactly what the store keys: (graph fingerprint, source,
// ε, algorithm, failure model) — vertex-failure queries land on the same
// ring as edge queries, just under their own keys, so hedged point reads
// and scatter-gather sub-batching apply to both failure models unchanged.
// The ring depends only on the sorted member IDs, never on
// addresses or health, so every router with the same member set computes
// the same owners (deterministic rebalance on join/leave); health state
// only reorders which replica is tried first.
//
// # Elastic membership: structures move when the ring does
//
// Membership changes move bytes, not just ranges. The router drives the
// rebalance through the shards' /handoff surface (internal/server), which
// streams slab records (internal/core) shard-to-shard over the source's
// binary-protocol connections — a record or graph text may reach
// wire.MaxRecord, the HTTP body bound, so anything /build accepts moves in
// one frame — and installs them on the receiver through the store's
// zero-parse LoadStructure/LoadVertexStructure path. A moved structure is
// never rebuilt. A record in a retired layout (magic FTB3 or FTB4, written
// before the FTB5 slab) fails that install like any unreadable record.
//
// The handoff protocol is receiver-driven: GET /handoff/keys inventories a
// shard, and POST /handoff/pull tells a shard to fetch a key list from a
// source's wire address (THandoff/TGraph frames) and install it. A fetch
// that fails is reported under its key in the pull's errors, and the key is
// then not held there: /build has that owner build it, a join leaves it to
// load-through, and PromoteHot widens no key onto an owner that lacks it.
// Pulls are idempotent — a receiver skips keys it already holds — so a
// re-driven rebalance converges instead of re-copying. A handoff key names
// its graph by lineage, and the receiver registers whatever generation the
// source serves, so a mutated lineage moves like any other.
//
// /build replicates through the same pulls. A structure is a deterministic
// function of its key, so each key is built once, on its first healthy
// owner (the next one on a transport fault or 5xx, or when half of the
// build budget passes unanswered), and every other owner pulls the
// builder's record — one pull in flight per owner, counted in
// structures_transferred and bytes_moved, even when another key fails the
// build. An owner whose pull installs nothing builds the key itself; that
// fallback failing is tolerated like a down replica.
//
// The rebalance lifecycle around a join (Router.AddShard) is
// transfer-before-flip:
//
//  1. Compute the ring delta: build the prospective ring (current IDs plus
//     the joiner) and, for every key any current shard holds, diff the
//     before/after replica sets (DeltaOwners). On a join, only the joiner
//     gains keys — consistent hashing's minimal-disruption property,
//     verified exhaustively in ring_test.go.
//  2. Drive pull-based transfer: the new shard pulls exactly its gained
//     keys from a current healthy holder, grouped by source shard.
//  3. Only then flip routing by joining the member to the membership: the
//     first routed query lands on a shard that already holds the
//     structure. Load-through remains the fallback for anything a transfer
//     missed — never the plan — and the router's /stats expose
//     structures_transferred / bytes_moved / ranges_pending so a soak can
//     assert the transfer actually ran rather than load-through masking a
//     broken handoff.
//
// A leave (Router.DrainShard) runs the mirror image: inventory the leaver,
// compute which members gain each of its keys once it departs, drive pulls
// on those successors (sourced from the leaver — it is still serving), and
// remove it from the membership last. A rejoin (same ID, new address)
// moves nothing, by construction of the ring.
//
// # Live graphs: mutation fan-out and generation convergence
//
// POST /mutate applies an edge-mutation batch to a lineage fleet-wide. The
// router cannot enumerate which shards hold state for a lineage (per-source
// structure keys hash to different owners), so the batch fans to every
// member as TMutate frames — a transport fault fails that shard like any
// shard error — and shards without the graph answer 404, which is
// tolerated as long as at least one shard applied. Each applying shard
// derives the new generation deterministically from the same base graph and
// batch, so all replies must agree on (generation, fingerprint); a diverging
// shard fails the fan-out with 502 rather than letting replicas silently
// serve different graphs.
//
// Identical concurrent requests coalesce into one single-flight fan-out
// (keyed by lineage + batch), so a client retry racing its slow original
// never double-applies; like /build, the fan-out detaches from its
// requester's cancellation and runs to a BuildTimeout-bounded end, because a
// partially-applied batch leaves the lineage split across generations. A
// shard that fails the batch while others applied it surfaces as a gateway
// error naming how many applied — queries stay safe either way, since every
// shard serves whichever generation it holds atomically. /stats carries the
// convergence ledger (mutations, mutation_shards, mutation_rebuilds_delta /
// _full, wire_mutations); the mutation differential soak asserts the delta
// path engages and that every answer under churn matches some generation
// serving during that query's lifetime.
//
// # R+k hot-key promotion
//
// The router tracks per-key hit counts on the point-query path. PromoteHot
// promotes keys whose count passes a threshold to R+k replication: the k
// extra owners — the next distinct members on the key's ring walk past the
// base replica set — pull the structure ahead of time, and once every one
// of them holds it ownersFor returns the widened set, so hedged reads and
// batch units for a hot key spread over R+k replicas instead of R. Promotion survives
// membership changes (the widened walk is re-evaluated against the current
// ring on every lookup) and demotion is simply dropping the entry.
//
// # Deadline budgets, retries, and circuit breakers
//
// Every query carries a deadline budget. It enters as the wire frame's
// budget field or the X-Ftbfs-Budget-Ms header (RouterOptions.DefaultBudget
// applies when the client sends none; a header too large for a Duration
// saturates at the largest one) and becomes the request context's
// deadline; as the router forwards or retries, the REMAINING budget is what
// propagates, so a retry never restarts the clock. The invariant the chaos
// suite enforces is that no request outlives its budget — a fault may cost
// an answer (an error inside the budget), never an open-ended wait.
//
// Failed attempts retry on the next replica with jittered exponential
// backoff (RouterOptions.RetryBackoff/MaxRetryBackoff; a negative base
// disables the delay), bounded by the replica list and the budget rather
// than a count knob.
//
// Each member carries a circuit breaker with the classic three states.
// BreakerThreshold consecutive request failures trip it closed→open; while
// open, hedged and retried attempts skip the member (stats: breaker_skips),
// except that a key whose every owner is open still forces one attempt on
// the primary (breaker_forced) — an answer beats a guaranteed refusal. Open
// transitions to half-open either when BreakerCooldown elapses or when a
// background /readyz probe succeeds (probe-driven recovery); half-open
// admits exactly one trial request, whose success closes the breaker and
// whose failure re-opens it. A membership rejoin (same ID through Join)
// resets the breaker — a rejoining shard is a fresh start. Per-member state
// and trip counts are exposed in /stats (breaker, breaker_opens).
//
// # Load shedding
//
// Shards bound their own work: query-serving endpoints (/build, /dist,
// /dist-avoiding, /dist-avoiding-vertex, /batch-query — health, stats, and
// handoff surfaces are exempt) pass through a limiter with a bounded
// in-flight slot pool and a bounded wait queue (Server.SetWorkLimits). A
// full queue sheds immediately with 503 + Retry-After (in-protocol 503 on
// the wire path; a shed wire batch fails every slot), a draining shard
// refuses new work without queueing, and a request whose budget expires
// while queued answers 504 rather than occupying a freed slot. The router
// treats a shed like any replica failure: retry elsewhere within budget.
//
// # Telemetry and fleet aggregation
//
// The router instruments itself on an internal/telemetry registry: a
// per-route outcome-labeled latency histogram for its HTTP surface,
// per-replica forward latency split by transport
// (ftbfs_router_replica_seconds), and counters for every routing decision —
// hedges, failovers, breaker skips and forced attempts, wire transport
// faults (wire_fallbacks), rebalance transfers, hot promotions. /stats
// keeps its JSON shape but now reads the same registry values, so the two
// surfaces cannot drift.
// Exposition is /metrics (Prometheus text) and /metrics.json (the raw
// snapshot).
//
// /metrics/fleet is the aggregation point. The router scrapes each
// member's /metrics.json concurrently (bounded by a short per-scrape
// timeout; ftbfs_fleet_scraped_shards and ftbfs_fleet_scrape_errors report
// coverage), then merges the snapshots with telemetry.Merge: counters and
// gauges sum, and histograms — fixed 256 log-spaced buckets shared by every
// node — add bucket-by-bucket. Because merging is exact (no rebucketing,
// no quantile sketches), a fleet quantile computed from the merged
// histogram equals the quantile of the concatenated per-shard samples at
// bucket resolution, and merge order cannot matter. The merged families
// keep their per-shard label sets, so a fleet scrape still breaks down by
// route, frame type, and outcome.
//
// Request tracing rides the same paths the queries do: the router samples
// every Nth point query (RouterOptions.TraceSample) or honors a
// caller-supplied X-Ftbfs-Trace header, stamps its own spans, and forwards
// the trace ID in the wire frame's trace field. The shard's response frame
// echoes the ID and carries the shard's spans, which the router folds into
// its record under a "shard-id:" prefix (e.g. shard0:shard.wire) — exactly
// as it folds the X-Ftbfs-Spans header of the control plane's HTTP calls.
// Both routers and shards retain a bounded ring of recent traces at
// /debug/traces.
//
// # Chaos testing
//
// internal/chaos provides the deterministic fault injector these policies
// are gated against: a named catalog of fault plans (latency, drops,
// resets, stalls, corrupt, disk, mixed — chaos.PlanNames) wrapping the
// shards' listeners and store disk I/O via LocalOptions.Chaos. The
// differential suite (chaos_test.go) runs mixed edge/vertex traffic under
// every plan and asserts zero wrong answers, no budget overruns, and — in
// breaker_test.go — the full open→half-open→closed lifecycle.
package cluster
