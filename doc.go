// Package ftbfs constructs fault-tolerant BFS structures that trade
// expensive fail-proof "reinforced" edges against cheap fault-prone
// "backup" edges, implementing
//
//	Merav Parter and David Peleg,
//	"Fault Tolerant BFS Structures: A Reinforcement-Backup Tradeoff",
//	SPAA 2015 (arXiv:1504.04169).
//
// Given a network G and a source s, a (b, r) FT-BFS structure is a subgraph
// H ⊆ G with r reinforced edges (assumed to never fail) and b backup edges
// such that after the failure of any single non-reinforced edge e, the
// surviving structure still preserves all BFS distances from s:
//
//	dist(s, v, H \ {e}) ≤ dist(s, v, G \ {e})   for every v.
//
// The tradeoff (Theorems 3.1 and 5.1 of the paper): for every ε ∈ [0, 1],
// r(n) = Θ̃(n^{1−ε}) reinforced edges are necessary and sufficient for
// b(n) = Θ̃(min{n^{1+ε}, n^{3/2}}) backup edges. ε = 1 recovers the
// classical FT-BFS bound Θ(n^{3/2}); ε = 0 reinforces the BFS tree itself.
//
// # Quick start
//
//	g := ftbfs.NewGraph(4)
//	g.MustAddEdge(0, 1)
//	g.MustAddEdge(1, 2)
//	g.MustAddEdge(2, 3)
//	g.MustAddEdge(3, 0)
//	st, err := ftbfs.Build(g, 0, 0.25)
//	if err != nil { ... }
//	fmt.Println(st.BackupCount(), st.ReinforcedCount())
//
// Use Structure.Oracle for distance queries under simulated failures, and
// SweepCost / PredictOptimalEpsilon to pick ε from the per-edge prices of
// backup and reinforced links. BuildBatch builds many (source, ε, algorithm)
// requests at once, sharing the BFS tree, the replacement-path preprocessing
// and the reinforcement sweep per source. The walkthroughs in example_test.go
// (Example_quickstart, ExampleBuild_tradeoff, ExampleSweepCost,
// ExampleBuildMulti) run under go test.
//
// # Checking the contract
//
// Structure.Verify and VertexStructure.Verify run one loop for both failure
// models (core.Verify): each failure f of the model in turn, comparing BFS
// in H \ {f} with BFS in G \ {f}. The failures come from G and H, never
// from a loaded record: with T the canonical BFS tree of G, only failures on
// T are checked when T ⊆ H, and all of them otherwise. SimulateFailures,
// SensitivityOracle and BuildVertexFT are gone; use Verify,
// Oracle.BaselineDistAvoiding and BuildVertex.
//
// # Concurrent serving
//
// Structures are immutable once built and safe to share; Oracles are not
// (each owns its search scratches). A concurrent server therefore checks
// oracles out of Structure.OraclePool — a sync.Pool-backed checkout that
// recycles scratch buffers across requests. The intact distance vector
// behind Oracle.Dist is the distance array of H's canonical BFS tree in the
// structure's query plan: computed once per structure and cached forever
// (structures never change), shared by every oracle of the pool.
//
// Failure queries run against the structure's QueryPlan (Structure.Plan,
// built once and shared): H is materialized as its own flat CSR adjacency,
// and the plan classifies the failed edge against H's canonical BFS tree.
// A failure off the tree — including every edge outside H — cannot change
// any distance, so the answer is an O(1) read of the intact vector; a
// failed tree edge repairs only the subtree hanging below it, seeded from
// the intact-distance frontier crossing into it (bfs.Repair). The original
// full-BFS search survives as Oracle.DistAvoidingRef, the reference the
// fast paths are differential-tested against. Oracle.DistAvoidingMany
// validates a whole query vector up front (an error never publishes
// partial results) and answers it grouped by failed edge, so each distinct
// tree-edge failure is repaired once for all its targets.
//
// The internal/store package keys built structures by
// (Graph.Fingerprint, source, ε, algorithm) with LRU eviction, builds
// misses on demand through BuildBatch, and — given a directory — persists
// everything via SaveSlab/LoadStructure so evicted entries load back
// through and a restarted process warm-starts from disk. internal/server
// exposes that registry over HTTP/JSON ("ftbfs serve": /build, /dist,
// /dist-avoiding, /batch-query, /stats, /healthz, /readyz); /batch-query
// vectors may span several structures and answer with per-query error
// slots (Oracle.DistAvoidingEach).
//
// # Vertex failures
//
// The same serving machinery answers single VERTEX failures (the companion
// problem of Parter DISC'14 / Parter–Peleg ESA'13): BuildVertex constructs
// a VertexStructure, which is the serving core Structure embeds and
// nothing more, so both failure models share one QueryPlan, one Oracle and
// one OraclePool (VertexQueryPlan, VertexOracle and VertexOraclePool are
// aliases of them). Its construction, core.VertexEdges, runs on the edge
// construction's failure sweep, and its Pairs is |H| − |T0|, read from H
// and its plan.
// The models differ only in which subtree of H's BFS tree a failure can
// change and what the repair bans: a failed vertex off the target's tree
// path is an O(1) read of the cached intact vector, a failed tree vertex
// repairs only its strict-descendant subtree with every arc of the failed
// vertex banned (bfs.Repair.Run). Oracle.DistAvoidingVertex is the point
// query, DistAvoidingVertexRef the full-BFS reference it is
// differential-tested against, DistAvoidingVertexMany /
// DistAvoidingVertexEach the grouped batch forms. An oracle refuses the
// other model's failures with an error, as it refuses a reinforced edge.
// VertexStructure.SaveSlab and LoadVertexStructure persist the structure as
// a slab record of the vertex model; the store keys vertex structures under
// a failure-model Key dimension (store.VertexKey) and resolves both models
// through one single-flight path, and the server exposes them on
// /dist-avoiding-vertex plus "failedVertex" slots in /batch-query vectors.
//
// # Sharded serving
//
// internal/cluster scales the serving plane past one machine: a
// consistent-hash ring over the structure keyspace with a configurable
// replication factor, shard membership with health probes, and a router
// ("ftbfs route") that proxies the full query surface to the owning shards
// — hedged reads across replicas for point queries, scatter-gather with
// per-shard sub-batching for multi-structure batch vectors, and
// single-flight build fan-out so one logical /build lands on every replica
// exactly once. The ring depends only on shard IDs, so every router with
// the same member set routes identically and a shard rejoin moves no keys.
// cluster.StartLocal boots an N-shard cluster plus router in-process for
// tests and benchmarks.
//
// # Binary wire protocol and slab persistence
//
// HTTP/JSON stays the compatibility surface, but the hot paths have binary
// equivalents. Structure.SaveSlab and VertexStructure.SaveSlab write a
// binary record ("slab", magic FTB5): a fixed little-endian header that
// carries the base graph's generation, plus 8-aligned array sections in one
// layout for both failure models holding exactly the serving arrays the
// query plan needs, guarded by a CRC-32C checksum. The slab is the one
// structure record format: LoadStructure and LoadVertexStructure refuse
// anything else, including records in the retired FTB3/FTB4 layouts (a
// store quarantines those at warm start and rebuilds their keys on first
// use), and on little-endian hosts a slab's arrays are reinterpreted in place
// rather than parsed, so loading is I/O-bound and the store's warm start
// and load-through revalidate cheaply instead of re-deriving. The store
// persists slabs atomically (temp file, fsync, rename, directory sync) so
// a crash never leaves a torn record.
//
// internal/wire speaks a length-prefixed binary frame protocol over
// persistent TCP connections ("ftbfs serve -wire"): requests carry a fixed
// binary point-query or batch payload and a request id, responses may
// arrive out of order, and both sides coalesce bursts of frames into
// shared syscalls, which is what removes the per-request HTTP tax.
// internal/server converts HTTP requests to wire form in one place and
// answers both transports through one dispatch, so they are
// answer-identical by construction (and differential-tested, transport
// against transport against oracle). Inside a cluster the binary protocol
// is the only query path: shards must serve it ("ftbfs serve -shard
// -wire"), advertise their wire address on /readyz, and the router learns
// it from its probes; a wire transport fault fails the attempt over to the
// next replica.
package ftbfs
