package ftbfs_test

// One benchmark per experiment table (E1–E10; `go run ./cmd/experiments
// -quick all` prints the tables) plus micro-benchmarks of the underlying
// engines. Sizes are kept moderate so `go test -bench=. -benchmem`
// completes in minutes; the experiment binary (cmd/experiments) runs the
// full-size tables.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"ftbfs"
	"ftbfs/internal/batch"
	"ftbfs/internal/bfs"
	"ftbfs/internal/cluster"
	"ftbfs/internal/core"
	"ftbfs/internal/experiments"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
	"ftbfs/internal/tree"
	"ftbfs/internal/wire"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// E1: the headline reinforcement-backup tradeoff table (Thm 3.1).
func BenchmarkE1TradeoffSweep(b *testing.B) { benchExperiment(b, "tradeoff-upper") }

// E2: baseline FT-BFS size scaling ([14], ε = 1).
func BenchmarkE2BaselineN32(b *testing.B) { benchExperiment(b, "baseline-n32") }

// E3: single-source lower bound (Thm 5.1, Claim 5.3).
func BenchmarkE3LowerBound(b *testing.B) { benchExperiment(b, "lower-bound") }

// E4: multi-source lower bound (Thm 5.4).
func BenchmarkE4MBFSLowerBound(b *testing.B) { benchExperiment(b, "mbfs-lower-bound") }

// E5: cost-optimal ε vs price ratio (§1 corollary).
func BenchmarkE5CostCurve(b *testing.B) { benchExperiment(b, "cost-curve") }

// E6: the introduction's clique example.
func BenchmarkE6CliqueExample(b *testing.B) { benchExperiment(b, "clique-example") }

// E7: tree-decomposition facts (Fact 3.3, Fact 4.1).
func BenchmarkE7Decomposition(b *testing.B) { benchExperiment(b, "decomposition") }

// E8: interference census (Fig. 1–2).
func BenchmarkE8Interference(b *testing.B) { benchExperiment(b, "interference") }

// E9: phase ablation.
func BenchmarkE9PhaseAblation(b *testing.B) { benchExperiment(b, "phase-ablation") }

// E10: exhaustive contract verification (Def. 2.1).
func BenchmarkE10VerifyExact(b *testing.B) { benchExperiment(b, "verify-exact") }

// --- micro-benchmarks of the engines -----------------------------------

func benchGraph(n int) *graph.Graph { return gen.RandomConnected(n, 3*n, 7) }

func BenchmarkBFSTree(b *testing.B) {
	g := benchGraph(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfs.From(g, 0)
	}
}

func BenchmarkRestrictedBFS(b *testing.B) {
	g := benchGraph(5000)
	sc := bfs.NewScratch(g.N())
	out := make([]int32, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.DistancesAvoiding(g, 0, bfs.Restriction{BannedEdge: graph.EdgeID(i % g.M())}, out)
	}
}

func BenchmarkTreeDecomposition(b *testing.B) {
	g := benchGraph(5000)
	bt := bfs.From(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Build(g, bt)
	}
}

func BenchmarkReplacementAllPairs(b *testing.B) {
	lb := gen.LowerBoundParams(3, 4, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := replacement.NewEngine(lb.G, lb.S)
		en.AllPairs()
	}
}

// BenchmarkBuildEpsilon times one ε build of the three-phase construction
// on two lower-bound instances; on gen.LowerBound(1198, 0.42) at ε = 0.1,
// Phase S1's interference tests are most of the build.
func BenchmarkBuildEpsilon(b *testing.B) {
	for _, c := range []struct {
		name string
		lb   *gen.LowerBoundGraph
		eps  float64
	}{
		{"lowerbound-4-5-20", gen.LowerBoundParams(4, 5, 20), 0.25},
		{"lowerbound-1198", gen.LowerBound(1198, 0.42), 0.1},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(c.lb.G, c.lb.S, c.eps, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildBaseline(b *testing.B) {
	lb := gen.LowerBoundParams(4, 5, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(lb.G, lb.S, 1, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildBatch compares one batched build of 8 (source, ε) requests
// on the Epsilon path against the equivalent loop of sequential core.Build
// calls. The batch shares, per source, the canonical tree and its
// decomposition, the Phase S0 replacement-path pass, the Phase S2 scratch
// and the reinforcement sweep, and recycles each worker's engine scratch
// across its sources — so it wins on wall-clock and allocations even
// single-threaded.
func BenchmarkBuildBatch(b *testing.B) {
	g := gen.RandomConnected(600, 1800, 13)
	var reqs []batch.Request
	for _, s := range []int{0, 151} {
		for _, eps := range []float64{0.15, 0.2, 0.25, 0.3} {
			reqs = append(reqs, batch.Request{Source: s, Eps: eps})
		}
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := core.Build(g, r.Source, r.Eps, r.Opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := batch.Build(g, reqs, batch.Options{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOracleFailureQuery(b *testing.B) {
	g := ftbfs.NewGraph(400)
	lb := gen.RandomConnected(400, 1200, 9)
	for _, e := range lb.Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	o := st.Oracle()
	edges := st.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if st.IsReinforced(e[0], e[1]) {
			continue
		}
		if _, err := o.DistAvoiding(i%400, e[0], e[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServeFixture builds one structure on a moderate random graph and
// returns it plus its failable edges; shared by the serving benchmarks.
func benchServeFixture(b *testing.B) (*ftbfs.Structure, [][2]int) {
	b.Helper()
	g := ftbfs.NewGraph(400)
	for _, e := range gen.RandomConnected(400, 1200, 9).Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	var edges [][2]int
	for _, e := range st.Edges() {
		if !st.IsReinforced(e[0], e[1]) {
			edges = append(edges, e)
		}
	}
	return st, edges
}

// BenchmarkOraclePool measures concurrent failure queries: a fresh oracle per
// query (what a naive server would allocate) against checkout from the
// structure's OraclePool, and the pooled batched DistAvoidingMany path that
// answers 16 queries per checkout with one early-exiting BFS scratch.
func BenchmarkOraclePool(b *testing.B) {
	st, edges := benchServeFixture(b)
	n := 400
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				k := int(i.Add(1))
				e := edges[k%len(edges)]
				o := st.Oracle()
				if _, err := o.DistAvoiding(k%n, e[0], e[1]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := st.OraclePool()
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				k := int(i.Add(1))
				e := edges[k%len(edges)]
				err := pool.Do(func(o *ftbfs.Oracle) error {
					_, err := o.DistAvoiding(k%n, e[0], e[1])
					return err
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("pooled-many16", func(b *testing.B) {
		b.ReportAllocs()
		pool := st.OraclePool()
		queries := make([]ftbfs.FailureQuery, 16)
		out := make([]int, len(queries))
		for j := range queries {
			e := edges[j%len(edges)]
			queries[j] = ftbfs.FailureQuery{V: (j * 31) % n, FailedU: e[0], FailedV: e[1]}
		}
		for i := 0; i < b.N; i++ {
			err := pool.Do(func(o *ftbfs.Oracle) error {
				_, err := o.DistAvoidingMany(queries, out)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryPlan measures the plan-backed failure-query fast paths that
// make serving sublinear in practice, against the full-BFS reference:
//
//   - nontree-edge: the failed edge is off H's BFS tree, so the answer is an
//     O(1) read of the cached intact vector (~0 allocs/op, no search).
//   - tree-edge: the failed edge is a tree edge; only the subtree hanging
//     below it is repaired (bfs.Repair over H's own CSR arcs).
//   - batch16-grouped: a 16-query vector over 4 distinct failed tree edges,
//     grouped by DistAvoidingMany so each failure repairs once.
//   - reference-full-bfs: the pre-plan cost — a restricted BFS over all of
//     G per query — kept as the yardstick the fast paths are gated against.
func BenchmarkQueryPlan(b *testing.B) {
	st, edges := benchServeFixture(b)
	plan := st.Plan()
	var treeEdges, nonTree [][2]int
	for _, e := range edges {
		if plan.IsTreeEdge(e[0], e[1]) {
			treeEdges = append(treeEdges, e)
		} else {
			nonTree = append(nonTree, e)
		}
	}
	if len(treeEdges) == 0 || len(nonTree) == 0 {
		b.Fatalf("degenerate fixture: %d tree edges, %d non-tree", len(treeEdges), len(nonTree))
	}
	const n = 400
	// The child (deeper) endpoint of a tree edge always lies inside the
	// failed subtree, so targeting it forces a repair run on every op —
	// otherwise most targets of this fixture hang outside the (typically
	// small) subtree and the benchmark would measure the O(1) path instead.
	childOf := func(e [2]int) int {
		if st.Dist(e[0]) > st.Dist(e[1]) {
			return e[0]
		}
		return e[1]
	}
	pool := st.OraclePool()
	b.Run("nontree-edge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := nonTree[i%len(nonTree)]
			err := pool.Do(func(o *ftbfs.Oracle) error {
				_, err := o.DistAvoiding(i%n, e[0], e[1])
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree-edge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := treeEdges[i%len(treeEdges)] // rotate edges: no repair reuse between ops
			err := pool.Do(func(o *ftbfs.Oracle) error {
				_, err := o.DistAvoiding(childOf(e), e[0], e[1])
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch16-grouped", func(b *testing.B) {
		b.ReportAllocs()
		queries := make([]ftbfs.FailureQuery, 16)
		out := make([]int, len(queries))
		for j := range queries {
			e := treeEdges[(j%4)*len(treeEdges)/4] // 4 distinct failures, 4 targets each
			v := (j * 31) % n
			if j%2 == 0 {
				v = childOf(e) // half the targets force the repaired subtree
			}
			queries[j] = ftbfs.FailureQuery{V: v, FailedU: e[0], FailedV: e[1]}
		}
		for i := 0; i < b.N; i++ {
			err := pool.Do(func(o *ftbfs.Oracle) error {
				_, err := o.DistAvoidingMany(queries, out)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference-full-bfs", func(b *testing.B) {
		b.ReportAllocs()
		o := st.Oracle()
		for i := 0; i < b.N; i++ {
			e := treeEdges[i%len(treeEdges)]
			if _, err := o.DistAvoidingRef(childOf(e), e[0], e[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeQueries measures the HTTP serving hot path end to end:
// concurrent GET /dist-avoiding requests and POST /batch-query vectors
// against one structure resident in the store.
// serveClients sets the offered concurrency for the serving benchmarks
// (BenchmarkServeQueries and BenchmarkWireServe): SetParallelism multiplies
// GOMAXPROCS, so both transports face the same number of in-flight clients
// regardless of core count. Under concurrent load HTTP/1.1 opens one
// connection per in-flight request while the wire protocol pipelines frames
// over its small pool — the very difference the pair of benchmarks exists to
// price.
const serveClients = 8

func BenchmarkServeQueries(b *testing.B) {
	reg, err := store.New(0, "")
	if err != nil {
		b.Fatal(err)
	}
	g := ftbfs.NewGraph(400)
	for _, e := range gen.RandomConnected(400, 1200, 9).Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	fp, err := reg.AddGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	st, err := reg.GetOrBuild(context.Background(), store.Key{Graph: fp, Source: 0, Eps: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	var edges [][2]int
	for _, e := range st.Edges() {
		if !st.IsReinforced(e[0], e[1]) {
			edges = append(edges, e)
		}
	}
	ts := httptest.NewServer(server.New(reg))
	defer ts.Close()
	fpHex := fmt.Sprintf("%016x", fp)

	b.Run("dist-avoiding", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(serveClients)
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			client := &http.Client{}
			for pb.Next() {
				k := int(i.Add(1))
				e := edges[k%len(edges)]
				url := fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=%d&fu=%d&fv=%d",
					ts.URL, fpHex, k%400, e[0], e[1])
				resp, err := client.Get(url)
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		})
	})
	b.Run("batch-query16", func(b *testing.B) {
		b.ReportAllocs()
		eps := 0.3
		req := server.BatchQueryRequest{Graph: fpHex, Eps: &eps}
		for j := 0; j < 16; j++ {
			e := edges[j%len(edges)]
			req.Queries = append(req.Queries, server.BatchQuery{V: (j * 31) % 400, Fail: e})
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		var i atomic.Int64
		b.SetParallelism(serveClients)
		b.RunParallel(func(pb *testing.PB) {
			client := &http.Client{}
			for pb.Next() {
				i.Add(1)
				resp, err := client.Post(ts.URL+"/batch-query", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		})
	})
}

// BenchmarkClusterRoute measures the sharded serving plane end to end on an
// in-process local cluster (internal/cluster.StartLocal): real HTTP from
// client to router to shard and back, replication factor 2. Point queries
// exercise the hedged-read path on one structure; batch256 scatter-gathers a
// 256-query vector spanning 16 structures into per-shard sub-batches.
//
// The scaling signal is the shardq/op metric: the maximum number of queries
// any single shard served per batch. One shard absorbs all 256; four shards
// split the vector roughly evenly, so per-shard load — the quantity that
// caps throughput when shards are separate machines — drops ~4×. Wall-clock
// ns/op on a shared-CPU test box cannot show that win (every "shard" here
// competes for the same cores, so fan-out is pure overhead locally); ns/op
// is still reported and gated to catch routing-layer regressions.
func BenchmarkClusterRoute(b *testing.B) {
	const n = 400
	// 16 structures give the ring enough keys to spread primaries across 4
	// shards (4 keys alone skew badly); the batch below spans all of them.
	sources := make([]int, 16)
	for i := range sources {
		sources[i] = i * 25
	}
	newGraph := func() *ftbfs.Graph {
		g := ftbfs.NewGraph(n)
		for _, e := range gen.RandomConnected(n, 1200, 9).Edges() {
			g.MustAddEdge(int(e.U), int(e.V))
		}
		return g
	}
	// Per-source failable edges from local ground-truth builds (reinforced
	// sets differ per source, and a reinforced edge cannot fail).
	failable := make(map[int][][2]int)
	for _, src := range sources {
		st, err := ftbfs.Build(newGraph(), src, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range st.Edges() {
			if !st.IsReinforced(e[0], e[1]) {
				failable[src] = append(failable[src], e)
			}
		}
	}

	for _, nShards := range []int{1, 4} {
		lc, err := cluster.StartLocal(nShards, cluster.LocalOptions{
			Replicas: 2,
			// An in-process cluster under full benchmark load can exceed the
			// production hedge delay on scheduler noise alone; a high delay
			// keeps the hedged-read path wired in without duplicating load.
			Router: cluster.RouterOptions{HedgeDelay: 50 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		g := newGraph()
		var text bytes.Buffer
		if err := g.Write(&text); err != nil {
			b.Fatal(err)
		}
		var br server.BuildResponse
		body, _ := json.Marshal(server.BuildRequest{Graph: text.String(), Sources: sources, Eps: []float64{0.3}})
		resp, err := http.Post(lc.URL()+"/build", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil || len(br.Structures) != len(sources) {
			b.Fatalf("cluster build failed: %v (%d structures)", err, len(br.Structures))
		}

		b.Run(fmt.Sprintf("point-s%d", nShards), func(b *testing.B) {
			b.ReportAllocs()
			edges := failable[0]
			var i atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				client := &http.Client{}
				for pb.Next() {
					k := int(i.Add(1))
					e := edges[k%len(edges)]
					url := fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=%d&fu=%d&fv=%d",
						lc.URL(), br.Fingerprint, k%n, e[0], e[1])
					r, err := client.Get(url)
					if err != nil {
						b.Error(err)
						return
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						b.Errorf("status %d", r.StatusCode)
						return
					}
				}
			})
		})
		// The batch sub-benchmark is a single sequential client measuring
		// end-to-end latency of one large multi-structure vector: with 4
		// shards, the router's per-shard sub-batches decode, answer and
		// encode in parallel on different shard servers, so the linear
		// per-query serving cost splits across the cluster while the
		// single shard pays it all in one request.
		b.Run(fmt.Sprintf("batch256-s%d", nShards), func(b *testing.B) {
			b.ReportAllocs()
			eps := 0.3
			req := server.BatchQueryRequest{Graph: br.Fingerprint, Eps: &eps}
			for j := 0; j < 256; j++ {
				src := sources[j%len(sources)]
				srcCopy := src
				e := failable[src][j%len(failable[src])]
				req.Queries = append(req.Queries, server.BatchQuery{
					Source: &srcCopy, V: (j * 31) % n, Fail: e,
				})
			}
			payload, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			shardQueries := func() []uint64 {
				out := make([]uint64, len(lc.Shards))
				for si, sh := range lc.Shards {
					var sr server.StatsResponse
					r, err := http.Get(sh.Addr() + "/stats")
					if err != nil {
						b.Fatal(err)
					}
					err = json.NewDecoder(r.Body).Decode(&sr)
					r.Body.Close()
					if err != nil {
						b.Fatal(err)
					}
					out[si] = sr.Queries
				}
				return out
			}
			client := &http.Client{}
			before := shardQueries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := client.Post(lc.URL()+"/batch-query", "application/json", bytes.NewReader(payload))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					b.Fatalf("status %d", r.StatusCode)
				}
			}
			b.StopTimer()
			after := shardQueries()
			var maxShard uint64
			for si := range after {
				if d := after[si] - before[si]; d > maxShard {
					maxShard = d
				}
			}
			b.ReportMetric(float64(maxShard)/float64(b.N), "shardq/op")
		})
		lc.Close()
	}
}

// BenchmarkClusterBuild measures one routed /build on a fresh in-process
// 4-shard / R=2 cluster: a fixed n=200 graph with 8 edge sources at ε=0.3
// and 2 vertex sources, so 10 structures each land on their 2 owners. Boot
// and teardown run with the timer stopped; what is timed is the fan-out —
// the builds, the record installs and the merged reply.
func BenchmarkClusterBuild(b *testing.B) {
	const n = 200
	g := ftbfs.NewGraph(n)
	for _, e := range gen.RandomConnected(n, 600, 11).Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(server.BuildRequest{
		Graph:         text.String(),
		Sources:       []int{0, 25, 50, 75, 100, 125, 150, 175},
		Eps:           []float64{0.3},
		VertexSources: []int{10, 110},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		lc, err := cluster.StartLocal(4, cluster.LocalOptions{Replicas: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		resp, err := http.Post(lc.URL()+"/build", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		b.StopTimer()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("/build: status %d", resp.StatusCode)
		}
		lc.Close()
	}
}

// BenchmarkRebalance measures the elastic-cluster machinery on an in-process
// 3-shard / R=2 cluster. "handoff" is raw record-transfer throughput over the
// shards' persistent binary protocol (the same FetchRecord path a rebalance
// pull takes; bytes/op makes it an MB/s figure). "point-during-transfer"
// measures routed point-read latency while shards continuously join and drain
// in the background — every read races a live rebalance — and reports the
// p99 alongside the mean, the serving-plane cost of moving structures while
// serving them.
func BenchmarkRebalance(b *testing.B) {
	const n = 400
	sources := make([]int, 16)
	for i := range sources {
		sources[i] = i * 25
	}
	g := ftbfs.NewGraph(n)
	for _, e := range gen.RandomConnected(n, 1200, 9).Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		b.Fatal(err)
	}
	st0, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	var failable [][2]int
	for _, e := range st0.Edges() {
		if !st0.IsReinforced(e[0], e[1]) {
			failable = append(failable, e)
		}
	}

	lc, err := cluster.StartLocal(3, cluster.LocalOptions{
		Replicas: 2,
		Router:   cluster.RouterOptions{HedgeDelay: 50 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	var br server.BuildResponse
	body, _ := json.Marshal(server.BuildRequest{Graph: text.String(), Sources: sources, Eps: []float64{0.3}})
	resp, err := http.Post(lc.URL()+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if err != nil || len(br.Structures) != len(sources) {
		b.Fatalf("cluster build failed: %v (%d structures)", err, len(br.Structures))
	}
	var fpU uint64
	if _, err := fmt.Sscanf(br.Fingerprint, "%016x", &fpU); err != nil {
		b.Fatal(err)
	}

	b.Run("handoff", func(b *testing.B) {
		// Fetch a record the way a pulling shard does: over the holder's
		// persistent wire connections.
		key := store.Key{Graph: fpU, Source: 0, Eps: 0.3}
		var holder string
		for _, sh := range lc.Shards {
			if sh.Store.Has(key) {
				holder = sh.Server.WireAddr()
				break
			}
		}
		if holder == "" {
			b.Fatal("no shard holds the benchmark key")
		}
		wc := wire.NewClient(holder, 2)
		defer wc.Close()
		wk := &wire.HandoffKey{FP: fpU, EpsBits: math.Float64bits(0.3), Source: 0}
		ctx := context.Background()
		rec, werr, err := wc.FetchRecord(ctx, wk)
		if err != nil || werr != nil {
			b.Fatalf("FetchRecord: %v / %v", err, werr)
		}
		b.SetBytes(int64(len(rec)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, werr, err := wc.FetchRecord(ctx, wk); err != nil || werr != nil {
				b.Fatalf("FetchRecord: %v / %v", err, werr)
			}
		}
	})

	b.Run("point-during-transfer", func(b *testing.B) {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := lc.AddShard(ctx); err != nil {
					b.Error(err)
					return
				}
				if _, err := lc.RemoveShard(ctx, len(lc.Shards)-1); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		client := &http.Client{}
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := failable[i%len(failable)]
			url := fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=%d&fu=%d&fv=%d",
				lc.URL(), br.Fingerprint, i%n, e[0], e[1])
			t0 := time.Now()
			r, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			lat = append(lat, time.Since(t0))
			if r.StatusCode != http.StatusOK {
				b.Fatalf("status %d mid-transfer", r.StatusCode)
			}
		}
		b.StopTimer()
		close(stop)
		<-done
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	})
}

// BenchmarkMutate measures the live-graph machinery. "rebuild-delta" vs
// "rebuild-full" price the two ways a resident structure crosses a
// generation: the DeltaRebuild carry-over (a deletes-only batch touching no
// H edge re-keys the edge sets and rebuilds only the serving plan) against
// the full ftbfs.Build the slow path pays — their ratio is the delta win the
// store's mutation path banks on. "point-during-mutations" measures routed
// point-read latency on a 3-shard / R=2 local cluster while a background
// /mutate stream advances the lineage's generation continuously — deletes
// (delta carry-over on every holder) alternating with re-inserts (full
// rebuild) — and reports the p99 alongside the mean; queries never block on
// a rebuild, and this gate keeps it that way.
func BenchmarkMutate(b *testing.B) {
	const n = 400
	g := ftbfs.NewGraph(n)
	var edges [][2]int
	for _, e := range gen.RandomConnected(n, 1200, 9).Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	// A deletes-only batch of non-H edges is exactly what the delta fast
	// path accepts; H contains a spanning tree, so removing them cannot
	// disconnect the graph.
	var victims []ftbfs.Mutation
	for _, e := range edges {
		if len(victims) == 3 {
			break
		}
		if !st.Contains(e[0], e[1]) {
			victims = append(victims, ftbfs.Mutation{Op: ftbfs.MutDelete, U: e[0], V: e[1]})
		}
	}
	if len(victims) < 3 {
		b.Fatal("degenerate fixture: fewer than 3 non-H edges")
	}
	g2, delta, err := g.Mutate(victims)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("rebuild-delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, ok := ftbfs.DeltaRebuild(st, g2, delta)
			if !ok || s == nil {
				b.Fatal("delta fast path refused an eligible batch")
			}
		}
	})
	b.Run("rebuild-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ftbfs.Build(g2, 0, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("point-during-mutations", func(b *testing.B) {
		lc, err := cluster.StartLocal(3, cluster.LocalOptions{
			Replicas: 2,
			Router:   cluster.RouterOptions{HedgeDelay: 50 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer lc.Close()
		var text bytes.Buffer
		if err := g.Write(&text); err != nil {
			b.Fatal(err)
		}
		var br server.BuildResponse
		body, _ := json.Marshal(server.BuildRequest{Graph: text.String(), Sources: []int{0}, Eps: []float64{0.3}})
		resp, err := http.Post(lc.URL()+"/build", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil || len(br.Structures) != 1 {
			b.Fatalf("cluster build failed: %v (%d structures)", err, len(br.Structures))
		}
		// The background stream deletes and re-inserts one non-H edge, so
		// every other generation takes the delta path and the rest pay a
		// full rebuild — while intact distances (what /dist answers) stay
		// identical across all of them.
		churn := victims[0]
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			client := &http.Client{}
			op := "delete"
			for {
				select {
				case <-stop:
					return
				default:
				}
				mb, _ := json.Marshal(server.MutateRequest{Graph: br.Fingerprint,
					Mutations: []server.MutationJSON{{Op: op, U: churn.U, V: churn.V}}})
				r, err := client.Post(lc.URL()+"/mutate", "application/json", bytes.NewReader(mb))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					b.Errorf("/mutate(%s) status %d mid-stream", op, r.StatusCode)
					return
				}
				if op == "delete" {
					op = "insert"
				} else {
					op = "delete"
				}
			}
		}()
		client := &http.Client{}
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			url := fmt.Sprintf("%s/dist?graph=%s&source=0&eps=0.3&v=%d", lc.URL(), br.Fingerprint, i%n)
			t0 := time.Now()
			r, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			lat = append(lat, time.Since(t0))
			if r.StatusCode != http.StatusOK {
				b.Fatalf("status %d mid-mutation", r.StatusCode)
			}
		}
		b.StopTimer()
		close(stop)
		<-done
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	})
}

// The one verifier over both failure models, on the same lower-bound graph.
func BenchmarkVerifyStructure(b *testing.B) {
	lb := gen.LowerBoundParams(3, 4, 8)
	st, err := core.Build(lb.G, lb.S, 0.25, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	vh, err := core.BuildVertex(lb.G, lb.S)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		h, reinf *graph.EdgeSet
		model    core.Model
	}{
		{"edge", st.Edges, st.Reinforced, core.ModelEdge},
		{"vertex", vh, nil, core.ModelVertex},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if viol := core.Verify(lb.G, lb.S, c.h, c.reinf, c.model, 0); len(viol) != 0 {
					b.Fatal("violations")
				}
			}
		})
	}
}

// E11: the vertex-failure extension.
func BenchmarkE11VertexFT(b *testing.B) {
	lb := gen.LowerBoundParams(3, 4, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildVertex(lb.G, lb.S); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVertexBuild measures the vertex construction on a fresh
// replacement engine per call (core.BuildVertex, what ftbfs.BuildVertex
// does) against VertexEdges on one engine recycled with Reset across
// sources: the engine is the workspace, so recycling it removes the
// per-call repair scratch and distance vector.
func BenchmarkVertexBuild(b *testing.B) {
	g := gen.RandomConnected(300, 900, 7)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildVertex(g, i%8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		b.ReportAllocs()
		en := replacement.NewEngine(g, 0)
		for i := 0; i < b.N; i++ {
			en.Reset(i % 8)
			if _, err := core.VertexEdges(en); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVertexQuery measures the vertex-failure serving fast paths the
// VertexQueryPlan provides, against the full-BFS reference:
//
//   - offpath: the failed vertex is off every target's tree path (a leaf of
//     H's BFS tree), so the answer is an O(1) read of the cached intact
//     vector — 0 allocs/op, no search (the gated acceptance path).
//   - tree-vertex: the failed vertex is internal and the target hangs below
//     it; only the strict-descendant subtree is repaired, with every arc of
//     the failed vertex banned.
//   - batch16-grouped: a 16-query vector over 4 distinct failed tree
//     vertices, grouped by DistAvoidingVertexMany so each failure repairs
//     once for all its targets.
//   - reference-full-bfs: the pre-plan cost — a restricted BFS over all of
//     G per query — kept as the yardstick the fast paths are gated against.
func BenchmarkVertexQuery(b *testing.B) {
	const n = 400
	g := ftbfs.NewGraph(n)
	for _, e := range gen.RandomConnected(n, 1200, 9).Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	st, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	plan := st.Plan()
	var leaves, internal []int
	descendant := make(map[int]int) // internal w -> one strict descendant
	for w := 1; w < n; w++ {
		if plan.VertexSubtreeSize(w) == 0 {
			leaves = append(leaves, w)
			continue
		}
		internal = append(internal, w)
		for v := 0; v < n; v++ {
			if v != w && plan.OnTreePath(w, v) {
				descendant[w] = v
				break
			}
		}
	}
	if len(leaves) == 0 || len(internal) < 4 {
		b.Fatalf("degenerate fixture: %d leaves, %d internal tree vertices", len(leaves), len(internal))
	}
	pool := st.OraclePool()
	b.Run("offpath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := leaves[i%len(leaves)]
			err := pool.Do(func(o *ftbfs.VertexOracle) error {
				_, err := o.DistAvoidingVertex(i%n, w)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree-vertex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := internal[i%len(internal)] // rotate: no repair reuse between ops
			err := pool.Do(func(o *ftbfs.VertexOracle) error {
				_, err := o.DistAvoidingVertex(descendant[w], w)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch16-grouped", func(b *testing.B) {
		b.ReportAllocs()
		queries := make([]ftbfs.VertexFailureQuery, 16)
		out := make([]int, len(queries))
		for j := range queries {
			w := internal[(j%4)*len(internal)/4] // 4 distinct failures, 4 targets each
			v := (j * 31) % n
			if j%2 == 0 {
				v = descendant[w] // half the targets force the repaired subtree
			}
			queries[j] = ftbfs.VertexFailureQuery{V: v, Failed: w}
		}
		for i := 0; i < b.N; i++ {
			err := pool.Do(func(o *ftbfs.VertexOracle) error {
				_, err := o.DistAvoidingVertexMany(queries, out)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference-full-bfs", func(b *testing.B) {
		b.ReportAllocs()
		o := st.Oracle()
		for i := 0; i < b.N; i++ {
			w := internal[i%len(internal)]
			if _, err := o.DistAvoidingVertexRef(descendant[w], w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireServe measures the binary-protocol serving hot path end to
// end on the same fixture as BenchmarkServeQueries: concurrent point queries
// and 16-slot batches over persistent pipelined connections. The ns/op gap
// to BenchmarkServeQueries is the HTTP tax (TCP setup amortized identically;
// what differs is framing, parsing, and allocation).
func BenchmarkWireServe(b *testing.B) {
	reg, err := store.New(0, "")
	if err != nil {
		b.Fatal(err)
	}
	g := ftbfs.NewGraph(400)
	for _, e := range gen.RandomConnected(400, 1200, 9).Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	fp, err := reg.AddGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	st, err := reg.GetOrBuild(context.Background(), store.Key{Graph: fp, Source: 0, Eps: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	var edges [][2]int
	for _, e := range st.Edges() {
		if !st.IsReinforced(e[0], e[1]) {
			edges = append(edges, e)
		}
	}
	srv := server.New(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = wire.Serve(ctx, ln, srv) }()
	// One connection: pipelining supplies the concurrency, and a single
	// stream lets the client's group flush and the server's drain-triggered
	// flush coalesce whole bursts of frames into shared syscalls — on a
	// shared-CPU box extra connections only add syscall overhead.
	wc := wire.NewClient(ln.Addr().String(), 1)
	defer wc.Close()
	epsBits := math.Float64bits(0.3)

	b.Run("dist-avoiding", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(serveClients)
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				k := int(i.Add(1))
				e := edges[k%len(edges)]
				q := wire.PointQuery{FP: fp, EpsBits: epsBits, Source: 0,
					V: int32(k % 400), A: int32(e[0]), B: int32(e[1])}
				d, werr, err := wc.Point(context.Background(), wire.TDistAvoiding, &q)
				if err != nil || werr != nil {
					b.Errorf("wire point: %v %v", err, werr)
					return
				}
				_ = d
			}
		})
	})
	b.Run("batch16", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(serveClients)
		var slots []wire.BatchSlot
		for j := 0; j < 16; j++ {
			e := edges[j%len(edges)]
			slots = append(slots, wire.BatchSlot{PointQuery: wire.PointQuery{
				FP: fp, EpsBits: epsBits, Source: 0,
				V: int32((j * 31) % 400), A: int32(e[0]), B: int32(e[1])}})
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				dists, _, werr, err := wc.Batch(context.Background(), slots)
				if err != nil || werr != nil {
					b.Errorf("wire batch: %v %v", err, werr)
					return
				}
				if len(dists) != 16 {
					b.Errorf("%d answers", len(dists))
					return
				}
			}
		})
	})

	// WIRE_METRICS_OUT (set by CI's bench job) captures the exercised
	// server's /metrics exposition so each benchmark run ships a telemetry
	// snapshot artifact alongside its timings.
	if out := os.Getenv("WIRE_METRICS_OUT"); out != "" {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("/metrics = %d", rec.Code)
		}
		if err := os.WriteFile(out, rec.Body.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlabLoad measures load-to-serving-ready — decode a persisted
// slab record and build its query plan — through the LoadStructure and
// LoadVertexStructure entry points the store uses: the loaders validate and
// reinterpret, they run no search. slab-vertex loads the vertex record of
// the same graph and source.
func BenchmarkSlabLoad(b *testing.B) {
	g := ftbfs.NewGraph(2000)
	for _, e := range gen.RandomConnected(2000, 6000, 9).Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	vst, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	var slab, vslab bytes.Buffer
	if err := st.SaveSlab(&slab); err != nil {
		b.Fatal(err)
	}
	if err := vst.SaveSlab(&vslab); err != nil {
		b.Fatal(err)
	}
	raw, vraw := slab.Bytes(), vslab.Bytes()
	b.Run("slab", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			s, err := ftbfs.LoadStructure(g, bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if s.Plan() == nil {
				b.Fatal("no plan")
			}
		}
	})
	b.Run("slab-vertex", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(vraw)))
		for i := 0; i < b.N; i++ {
			s, err := ftbfs.LoadVertexStructure(g, bytes.NewReader(vraw))
			if err != nil {
				b.Fatal(err)
			}
			if s.Plan() == nil {
				b.Fatal("no plan")
			}
		}
	})
}
