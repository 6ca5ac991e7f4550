package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ftbfs"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// clusterGraph builds a deterministic connected random graph and returns it
// with its edge list (the root Graph type does not expose edges).
func clusterGraph(n, extra int, seed int64) (*ftbfs.Graph, [][2]int) {
	rng := rand.New(rand.NewSource(seed))
	g := ftbfs.NewGraph(n)
	var edges [][2]int
	add := func(u, v int) {
		g.MustAddEdge(u, v)
		edges = append(edges, [2]int{u, v})
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			add(u, v)
		}
	}
	return g, edges
}

func getJSON(t testing.TB, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("bad response %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func postJSON(t testing.TB, url string, body, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("bad response %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

// fixture is one structure served by the cluster plus its single-node
// ground truth.
type fixture struct {
	fp     string
	source int
	eps    float64
	oracle *ftbfs.Oracle
	n      int
	// failable base-graph edges (not reinforced in the ground truth).
	edges [][2]int
}

// buildFixtures registers graphs with the cluster via the router's /build
// and builds identical single-node ground truths.
func buildFixtures(t testing.TB, url string, seeds []int64, sources []int, eps float64) []fixture {
	t.Helper()
	var out []fixture
	for _, seed := range seeds {
		g, edges := clusterGraph(60, 90, seed)
		var text bytes.Buffer
		if err := g.Write(&text); err != nil {
			t.Fatal(err)
		}
		var resp server.BuildResponse
		code, body := postJSON(t, url+"/build", server.BuildRequest{
			Graph:   text.String(),
			Sources: sources,
			Eps:     []float64{eps},
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("/build via router: %d %s", code, body)
		}
		if len(resp.Structures) != len(sources) {
			t.Fatalf("router built %d structures, want %d", len(resp.Structures), len(sources))
		}
		for _, src := range sources {
			truth, err := ftbfs.Build(g, src, eps)
			if err != nil {
				t.Fatal(err)
			}
			var failable [][2]int
			for _, e := range edges {
				if !truth.IsReinforced(e[0], e[1]) {
					failable = append(failable, e)
				}
			}
			out = append(out, fixture{
				fp:     resp.Fingerprint,
				source: src,
				eps:    eps,
				oracle: truth.Oracle(),
				n:      g.N(),
				edges:  failable,
			})
		}
	}
	return out
}

// distResponse is a point endpoint's JSON answer.
type distResponse struct {
	Dist int `json:"dist"`
}

// checkPoint asserts one routed /dist-avoiding answer against the
// single-node oracle.
func checkPoint(t testing.TB, url string, fx fixture, v int, e [2]int) {
	t.Helper()
	want, err := fx.oracle.DistAvoiding(v, e[0], e[1])
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Dist int `json:"dist"`
	}
	q := fmt.Sprintf("%s/dist-avoiding?graph=%s&source=%d&eps=%g&v=%d&fu=%d&fv=%d",
		url, fx.fp, fx.source, fx.eps, v, e[0], e[1])
	code, body := getJSON(t, q, &dr)
	if code != http.StatusOK {
		t.Fatalf("routed /dist-avoiding: %d %s (%s)", code, body, q)
	}
	if dr.Dist != want {
		t.Fatalf("routed dist-avoiding(v=%d, fail={%d,%d}) = %d, single-node oracle says %d",
			v, e[0], e[1], dr.Dist, want)
	}
}

// TestRouterDifferentialVsSingleNode is the cluster correctness gate: every
// failure query through a 4-shard / replication-2 cluster must answer
// exactly what a single-node Oracle.DistAvoiding answers.
func TestRouterDifferentialVsSingleNode(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	fixtures := buildFixtures(t, lc.URL(), []int64{11, 12}, []int{0, 5}, 0.3)

	// Replication factor 2 really landed every structure on two stores.
	total := 0
	for _, sh := range lc.Shards {
		total += sh.Store.Len()
	}
	if want := len(fixtures) * 2; total != want {
		t.Fatalf("shards hold %d structures in total, want %d (R=2 × %d)", total, want, len(fixtures))
	}

	for _, fx := range fixtures {
		// Intact distances through the router.
		for v := 0; v < fx.n; v += 7 {
			var dr struct {
				Dist int `json:"dist"`
			}
			code, body := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&source=%d&eps=%g&v=%d",
				lc.URL(), fx.fp, fx.source, fx.eps, v), &dr)
			if code != http.StatusOK {
				t.Fatalf("routed /dist: %d %s", code, body)
			}
			if want := fx.oracle.Dist(v); dr.Dist != want {
				t.Fatalf("routed dist(%d) = %d, want %d", v, dr.Dist, want)
			}
		}
		// Every failable edge, two targets each.
		for i, e := range fx.edges {
			checkPoint(t, lc.URL(), fx, (i*13)%fx.n, e)
			checkPoint(t, lc.URL(), fx, e[1], e)
		}
	}

	// An unknown graph is 404 on every replica; the router retries it as
	// possibly-cold shard state and relays the 404 when all replicas agree
	// — not a 502.
	if code, _ := getJSON(t, lc.URL()+"/dist?graph=ffffffffffffffff&v=1", nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph through router: %d, want 404", code)
	}
	// A deterministic client error (bad vertex) must be relayed from the
	// first replica without burning the rest.
	var rsBefore RouterStatsResponse
	getJSON(t, lc.URL()+"/stats", &rsBefore)
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&eps=0.3&v=99999", lc.URL(), fixtures[0].fp), nil); code != http.StatusBadRequest {
		t.Fatalf("bad vertex through router: %d, want 400", code)
	}
	var rsAfter RouterStatsResponse
	getJSON(t, lc.URL()+"/stats", &rsAfter)
	if rsAfter.Failovers != rsBefore.Failovers {
		t.Fatalf("deterministic 400 burned replicas: failovers %d -> %d", rsBefore.Failovers, rsAfter.Failovers)
	}
}

// TestRouterOutOfRangeFieldsMatchSingleNode extends the router-vs-single-node
// differential to fields the wire's 32-bit slots cannot carry. Both tiers
// convert HTTP to wire form through the same code, so both must refuse each
// input with the same status and body — never answer it for whatever vertex
// the low 32 bits name — and a refused mutation moves no generation.
func TestRouterOutOfRangeFieldsMatchSingleNode(t *testing.T) {
	lc, err := StartLocal(2, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{13}, []int{0}, 0.3)[0]
	lin, err := strconv.ParseUint(fx.fp, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	node := lc.Shards[0] // R=2 over two shards: this single node holds the graph
	gen0, ok := node.Store.Graph(lin)
	if !ok {
		t.Fatal("shard0 does not hold the fixture graph")
	}
	const wide = 1 << 32 // low 32 bits 0: the wire would read vertex 0, or v+wide as v
	e := fx.edges[0]
	for _, q := range []string{
		fmt.Sprintf("/dist?graph=%s&eps=0.3&v=%d", fx.fp, wide+1),
		fmt.Sprintf("/dist-avoiding?graph=%s&eps=0.3&v=5&fu=%d&fv=%d", fx.fp, wide+1, 0),
		fmt.Sprintf("/dist-avoiding?graph=%s&eps=0.3&v=5&fu=%d&fv=%d", fx.fp, e[0], e[1]+wide),
		fmt.Sprintf("/dist?graph=%s&source=%d&eps=0.3&v=5", fx.fp, wide),
		fmt.Sprintf("/dist-avoiding-vertex?graph=%s&v=5&fw=%d", fx.fp, wide+3),
	} {
		rc, rb := getJSON(t, lc.URL()+q, nil)
		nc, nb := getJSON(t, node.ts.URL+q, nil)
		if rc < http.StatusBadRequest || rc != nc || rb != nb {
			t.Errorf("%s: router %d %s, single node %d %s; want the same refusal", q, rc, rb, nc, nb)
		}
	}

	eps, fw := 0.3, wide+3
	batch := server.BatchQueryRequest{Graph: fx.fp, Eps: &eps, Queries: []server.BatchQuery{
		{V: wide + 3, Fail: e},
		{V: wide + 3, FailedVertex: &fw},
		{V: 3, Fail: e},
	}}
	var rresp, nresp server.BatchQueryResponse
	rc, rb := postJSON(t, lc.URL()+"/batch-query", batch, &rresp)
	nc, nb := postJSON(t, node.ts.URL+"/batch-query", batch, &nresp)
	if rc != http.StatusOK || rc != nc || rb != nb {
		t.Fatalf("batch: router %d %s, single node %d %s", rc, rb, nc, nb)
	}
	if len(rresp.Errors) != 3 || rresp.Errors[0] == "" || rresp.Errors[1] == "" || rresp.Errors[2] != "" {
		t.Fatalf("batch: want error slots 0 and 1 and an answer in slot 2: %s", rb)
	}
	if want, _ := fx.oracle.DistAvoiding(3, e[0], e[1]); rresp.Dists[2] != want {
		t.Fatalf("batch slot 2: %d, oracle says %d", rresp.Dists[2], want)
	}

	muts := []server.MutationJSON{{Op: "delete", U: wide + 5, V: 52}}
	rc, _, rbody, err := mutateVia(http.DefaultClient, lc.URL(), fx.fp, muts)
	if err != nil {
		t.Fatal(err)
	}
	nc, _, nbody, err := mutateVia(http.DefaultClient, node.ts.URL, fx.fp, muts)
	if err != nil {
		t.Fatal(err)
	}
	if rc != http.StatusBadRequest || rc != nc || rbody != nbody {
		t.Fatalf("/mutate: router %d %s, single node %d %s; want the same 400", rc, rbody, nc, nbody)
	}
	for _, sh := range lc.Shards {
		if gg, ok := sh.Store.Graph(lin); !ok || gg.Generation() != 0 || gg.M() != gen0.M() {
			t.Fatalf("shard %s moved on a refused mutation", sh.ID)
		}
	}
}

// postRaw posts body verbatim and returns the status and response body.
func postRaw(t testing.TB, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestRouterBatchBodyFallbackMatchesSingleNode posts /batch-query bodies that
// encoding/json reads in ways a naive scanner would not — case-folded keys,
// a repeated "queries" merging into the first vector, a 1.0 target — to the
// router and to a single node: both tiers decode through the same code, so
// status and body must be identical.
func TestRouterBatchBodyFallbackMatchesSingleNode(t *testing.T) {
	lc, err := StartLocal(1, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{13}, []int{0}, 0.3)[0]
	e := fx.edges[len(fx.edges)/2]
	addr := fmt.Sprintf(`"graph":%q,"eps":0.3`, fx.fp)
	for _, body := range []string{
		fmt.Sprintf(`{%s,"queries":[{"v":5,"fail":[%d,%d]},{"v":7,"failedVertex":3}]}`, addr, e[0], e[1]),
		fmt.Sprintf(`{%s,"queries":[{"V":5,"fail":[%d,%d]},{"V":7,"FailedVertex":3}]}`, addr, e[0], e[1]),
		fmt.Sprintf(`{%s,"queries":[{"v":5,"fail":[%d,%d]}],"queries":[{"v":7}]}`, addr, e[0], e[1]),
		fmt.Sprintf(`{%s,"queries":[{"v":5.0,"fail":[%d,%d]}]}`, addr, e[0], e[1]),
		fmt.Sprintf(`{%s,"ſource":0,"queries":[{"v":5,"fail":[%d,%d,9]}]}`, addr, e[0], e[1]),
	} {
		rc, rb := postRaw(t, lc.URL()+"/batch-query", body)
		nc, nb := postRaw(t, lc.Shards[0].Addr()+"/batch-query", body)
		if rc != nc || rb != nb {
			t.Errorf("%s: router %d %s, single node %d %s", body, rc, rb, nc, nb)
		}
	}
}

// TestRouterMutateBuildMatchSingleNode extends the router-vs-single-node
// differential to /build and /mutate: an accepted build, a build the shard
// refuses, a mutation of an unknown graph and a mutation the shard refuses
// must come back from the router with the single node's status and bytes.
func TestRouterMutateBuildMatchSingleNode(t *testing.T) {
	lc, err := StartLocal(1, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	g, _ := clusterGraph(60, 90, 19)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	lineage := fmt.Sprintf("%016x", g.Fingerprint())
	// A graph text may carry a later generation of its lineage; both tiers
	// key it by that lineage.
	g2, edges2 := clusterGraph(60, 90, 20)
	last := edges2[len(edges2)-1] // not a tree edge: the graph stays connected
	g2, _, err = g2.Mutate([]ftbfs.Mutation{{Op: ftbfs.MutDelete, U: last[0], V: last[1]}})
	if err != nil {
		t.Fatal(err)
	}
	var text2 bytes.Buffer
	if err := g2.Write(&text2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path string
		body       any
		code       int
	}{
		{"build ok", "/build", server.BuildRequest{Graph: text.String(), Sources: []int{0}, Eps: []float64{0.3}}, http.StatusOK},
		{"build source out of range", "/build", server.BuildRequest{Graph: text.String(), Sources: []int{999}, Eps: []float64{0.3}}, http.StatusBadRequest},
		{"build a later generation", "/build", server.BuildRequest{Graph: text2.String(), Sources: []int{0, 7}, Eps: []float64{0.3}}, http.StatusOK},
		{"mutate unknown graph", "/mutate", server.MutateRequest{Graph: "00000000000000ff", Mutations: []server.MutationJSON{{Op: "delete", U: 1, V: 2}}}, http.StatusNotFound},
		{"mutate self-loop", "/mutate", server.MutateRequest{Graph: lineage, Mutations: []server.MutationJSON{{Op: "insert", U: 3, V: 3}}}, http.StatusBadRequest},
	} {
		rc, rb := postJSON(t, lc.URL()+c.path, c.body, nil)
		nc, nb := postJSON(t, lc.Shards[0].Addr()+c.path, c.body, nil)
		if rc != c.code || rc != nc || rb != nb {
			t.Errorf("%s: router %d %q, single node %d %q; want both %d and the same body", c.name, rc, rb, nc, nb, c.code)
		}
	}
}

// TestOversizedBudgetSaturates sends budget headers whose milliseconds do not
// fit a Duration. Both tiers saturate them rather than wrap them into a
// budget of nanoseconds, so the router answers a resident /dist with the
// single node's 200.
func TestOversizedBudgetSaturates(t *testing.T) {
	lc, err := StartLocal(1, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{13}, []int{0}, 0.3)[0]
	q := fmt.Sprintf("/dist?graph=%s&eps=0.3&v=5", fx.fp)
	get := func(base, budget string) (int, string) {
		req, err := http.NewRequest(http.MethodGet, base+q, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.BudgetHeader, budget)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	for _, budget := range []string{"76480200929599801", "9223372036854775807", "99999999999999999999"} {
		rc, rb := get(lc.URL(), budget)
		nc, nb := get(lc.Shards[0].Addr(), budget)
		if rc != http.StatusOK || rc != nc || rb != nb {
			t.Errorf("budget %s ms: router %d %q, single node %d %q; want the same 200", budget, rc, rb, nc, nb)
		}
	}
}

// TestRouterSplitsOversizedSubBatch routes a vector with more slots than one
// wire frame carries to a single shard: the router ships them as several
// sub-batches of at most wire.MaxBatchSlots and answers exactly as the shard
// itself does, with no transport fault.
func TestRouterSplitsOversizedSubBatch(t *testing.T) {
	lc, err := StartLocal(1, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{17}, []int{0}, 0.3)[0]
	eps := fx.eps
	req := server.BatchQueryRequest{Graph: fx.fp, Eps: &eps, Queries: make([]server.BatchQuery, wire.MaxBatchSlots+10)}
	for i := range req.Queries {
		req.Queries[i] = server.BatchQuery{V: i % fx.n, Fail: fx.edges[i%len(fx.edges)]}
	}
	rm := lc.Router.rm
	batches, fallbacks := rm.wireBatches.Value(), rm.wireFallbacks.Value()
	rc, rb := postJSON(t, lc.URL()+"/batch-query", req, nil)
	nc, nb := postJSON(t, lc.Shards[0].Addr()+"/batch-query", req, nil)
	if rc != http.StatusOK || rc != nc || rb != nb {
		t.Fatalf("router %d, single node %d; bodies equal: %v", rc, nc, rb == nb)
	}
	if n := rm.wireBatches.Value() - batches; n < 2 {
		t.Fatalf("router shipped %d sub-batches for %d slots, want at least 2", n, len(req.Queries))
	}
	if n := rm.wireFallbacks.Value() - fallbacks; n != 0 {
		t.Fatalf("wire_fallbacks moved by %d", n)
	}
}

// TestRouterOversizedMutateIsNoShardFault fans out a mutation batch too
// large for one wire frame: the client refuses it unsent, so the router
// answers 413 with no wire_fallbacks count and no strike against a shard.
func TestRouterOversizedMutateIsNoShardFault(t *testing.T) {
	lc, err := StartLocal(2, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	rm := lc.Router.rm
	fallbacks := rm.wireFallbacks.Value()
	_, werr := lc.Router.fanOutMutate(context.Background(), 1, make([]wire.MutationWire, wire.MaxPayload/9+1))
	if werr == nil || werr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized mutate answered %v, want 413", werr)
	}
	if n := rm.wireFallbacks.Value() - fallbacks; n != 0 {
		t.Fatalf("wire_fallbacks moved by %d", n)
	}
	for _, m := range lc.Router.m.Members() {
		if n := m.reqFailures.Load(); n != 0 || !m.Healthy() {
			t.Fatalf("shard %s took %d strikes (healthy %v)", m.ID, n, m.Healthy())
		}
	}
}

// TestRouterBatchScatterGather drives a multi-structure batch through the
// router: slots spanning different structures (hence different shards),
// plus invalid slots that must come back as per-query errors.
func TestRouterBatchScatterGather(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{21, 22}, []int{0, 5}, 0.25)

	eps := 0.25
	req := server.BatchQueryRequest{Graph: fixtures[0].fp, Eps: &eps}
	type expect struct {
		dist int
		err  bool
	}
	var want []expect
	for fi := range fixtures {
		fx := &fixtures[fi]
		src := fx.source
		for i := 0; i < 6 && i < len(fx.edges); i++ {
			e := fx.edges[i]
			v := (i * 11) % fx.n
			req.Queries = append(req.Queries, server.BatchQuery{
				Graph: fx.fp, Source: &src, V: v, Fail: e,
			})
			d, err := fx.oracle.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, expect{dist: d})
		}
	}
	// Invalid slots: bad target, non-edge, unknown structure.
	req.Queries = append(req.Queries,
		server.BatchQuery{V: 10_000, Fail: fixtures[0].edges[0]},
		server.BatchQuery{V: 1, Fail: [2]int{0, 0}},
		server.BatchQuery{Graph: "ffffffffffffffff", V: 1, Fail: fixtures[0].edges[0]},
	)
	want = append(want, expect{err: true}, expect{err: true}, expect{err: true})

	var resp server.BatchQueryResponse
	code, body := postJSON(t, lc.URL()+"/batch-query", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("routed /batch-query: %d %s", code, body)
	}
	if len(resp.Dists) != len(want) || len(resp.Errors) != len(want) {
		t.Fatalf("got %d dists / %d errors, want %d", len(resp.Dists), len(resp.Errors), len(want))
	}
	for i, w := range want {
		if w.err {
			if resp.Errors[i] == "" {
				t.Fatalf("slot %d: expected an error slot (%s)", i, body)
			}
			continue
		}
		if resp.Errors[i] != "" {
			t.Fatalf("slot %d: unexpected error %q", i, resp.Errors[i])
		}
		if resp.Dists[i] != w.dist {
			t.Fatalf("slot %d: routed %d, single-node oracle says %d", i, resp.Dists[i], w.dist)
		}
	}
}

// shardQueries reads every shard's answered-query count from its /stats.
func shardQueries(t *testing.T, lc *LocalCluster) []uint64 {
	t.Helper()
	out := make([]uint64, len(lc.Shards))
	for i, sh := range lc.Shards {
		if sh.ts == nil {
			continue // killed
		}
		var sr server.StatsResponse
		if code, body := getJSON(t, sh.Addr()+"/stats", &sr); code != http.StatusOK {
			t.Fatalf("shard %s /stats: %d %s", sh.ID, code, body)
		}
		out[i] = sr.Queries
	}
	return out
}

// unitBatch routes one vector over fixture fx, failing[j] for the targets
// of slot block j, checks every answer against the single-node oracle and
// returns how many queries each shard answered for it.
func unitBatch(t *testing.T, lc *LocalCluster, fx fixture, failing [][2]int, targets int) []uint64 {
	t.Helper()
	eps, src := fx.eps, fx.source
	req := server.BatchQueryRequest{Graph: fx.fp, Source: src, Eps: &eps}
	var want []int
	for j, e := range failing {
		for k := 0; k < targets; k++ {
			v, fail := (j*7+k*13)%fx.n, e
			if k%2 == 1 {
				fail = [2]int{e[1], e[0]} // one failure whichever way it is written
			}
			req.Queries = append(req.Queries, server.BatchQuery{V: v, Fail: fail})
			d, err := fx.oracle.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, d)
		}
	}
	before := shardQueries(t, lc)
	var resp server.BatchQueryResponse
	if code, body := postJSON(t, lc.URL()+"/batch-query", req, &resp); code != http.StatusOK || resp.Errors != nil {
		t.Fatalf("routed /batch-query: %d %s", code, body)
	}
	for i, w := range want {
		if resp.Dists[i] != w {
			t.Fatalf("slot %d: routed %d, single-node oracle says %d", i, resp.Dists[i], w)
		}
	}
	after := shardQueries(t, lc)
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// ownerShards returns the indexes in lc.Shards of fx's replicas, in the
// order a fresh router tries them.
func ownerShards(t *testing.T, lc *LocalCluster, fx fixture) []int {
	t.Helper()
	fp, err := strconv.ParseUint(fx.fp, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, m := range lc.Router.ownersFor(store.Key{Graph: fp, Source: fx.source, Eps: fx.eps}) {
		for i, sh := range lc.Shards {
			if sh.ID == m.ID {
				out = append(out, i)
			}
		}
	}
	return out
}

// TestBatchUnitOneShard routes a vector whose slots all fail one edge of one
// structure: that is one unit, so one shard answers all of it and repairs
// the failure once. A slot-by-slot replica choice splits it over both
// owners.
func TestBatchUnitOneShard(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{41}, []int{0}, 0.3)[0]
	got := unitBatch(t, lc, fx, [][2]int{fx.edges[3]}, 8)
	answering := 0
	for _, q := range got {
		if q != 0 {
			answering++
			if q != 8 {
				t.Fatalf("per-shard answers %v: one shard must answer all 8 slots", got)
			}
		}
	}
	if answering != 1 {
		t.Fatalf("per-shard answers %v: %d shards answered one unit, want 1", got, answering)
	}
}

// TestBatchUnitsSpreadOverOwners routes a one-structure vector over eight
// failures of four targets each: each unit stays whole on one shard, and
// the units spread by load over both owners.
func TestBatchUnitsSpreadOverOwners(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{42}, []int{0}, 0.3)[0]
	got := unitBatch(t, lc, fx, fx.edges[:8], 4)
	owners := ownerShards(t, lc, fx)
	if len(owners) != 2 {
		t.Fatalf("%d owners, want 2", len(owners))
	}
	for i, q := range got {
		isOwner := i == owners[0] || i == owners[1]
		if q%4 != 0 || (q == 0) == isOwner {
			t.Fatalf("per-shard answers %v, owners %v: want whole units of 4 on both owners only", got, owners)
		}
	}
}

// TestBatchUnitFailsOverWhole kills the replica a unit goes to first: its
// sub-batch fails on the transport, and the whole unit moves to the next
// owner, which answers all of it in one sub-batch.
func TestBatchUnitFailsOverWhole(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2, Router: RouterOptions{RetryBackoff: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{43}, []int{0}, 0.3)[0]
	owners := ownerShards(t, lc, fx)
	lc.KillShard(owners[0])
	rm := lc.Router.rm
	batches, failovers := rm.wireBatches.Value(), rm.failovers.Value()
	got := unitBatch(t, lc, fx, [][2]int{fx.edges[5]}, 8)
	if got[owners[1]] != 8 {
		t.Fatalf("per-shard answers %v: the next owner %s must answer the whole unit", got, lc.Shards[owners[1]].ID)
	}
	if n := rm.failovers.Value() - failovers; n != 1 {
		t.Fatalf("failovers moved by %d, want 1: the unit's one retry", n)
	}
	if n := rm.wireBatches.Value() - batches; n != 1 {
		t.Fatalf("%d sub-batches answered, want 1", n)
	}
}

// TestRouterSurvivesShardKillAndRejoin kills each shard in turn — the
// acceptance gate: with replication 2, every query must keep answering the
// single-node truth while any one shard is down, and after a rejoin.
func TestRouterSurvivesShardKillAndRejoin(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{31}, []int{0, 5}, 0.3)

	sample := func(label string) {
		for _, fx := range fixtures {
			for i := 0; i < len(fx.edges); i += 3 {
				e := fx.edges[i]
				checkPoint(t, lc.URL(), fx, (i*17)%fx.n, e)
			}
		}
		// A batch spanning both structures must also survive.
		eps := 0.3
		req := server.BatchQueryRequest{Eps: &eps}
		var want []int
		for fi := range fixtures {
			fx := &fixtures[fi]
			src := fx.source
			e := fx.edges[1]
			req.Queries = append(req.Queries, server.BatchQuery{Graph: fx.fp, Source: &src, V: e[0], Fail: e})
			d, err := fx.oracle.DistAvoiding(e[0], e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, d)
		}
		var resp server.BatchQueryResponse
		code, body := postJSON(t, lc.URL()+"/batch-query", req, &resp)
		if code != http.StatusOK {
			t.Fatalf("[%s] routed batch: %d %s", label, code, body)
		}
		if resp.Errors != nil {
			t.Fatalf("[%s] batch error slots with one shard down: %v", label, resp.Errors)
		}
		for i := range want {
			if resp.Dists[i] != want[i] {
				t.Fatalf("[%s] batch slot %d: %d, want %d", label, i, resp.Dists[i], want[i])
			}
		}
	}

	sample("all-up")
	for i := range lc.Shards {
		lc.KillShard(i)
		sample(fmt.Sprintf("shard%d-down", i))
		lc.RestartShard(i)
		sample(fmt.Sprintf("shard%d-rejoined", i))
	}
}

// TestRouterConcurrentDifferential hammers the router from many goroutines
// while a shard is killed and rejoined mid-flight; every answer must stay
// correct (run under -race in CI).
func TestRouterConcurrentDifferential(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{41}, []int{0}, 0.3)
	fx := fixtures[0]

	type q struct {
		v    int
		e    [2]int
		want int
	}
	var qs []q
	for i, e := range fx.edges {
		v := (i * 13) % fx.n
		d, err := fx.oracle.DistAvoiding(v, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q{v: v, e: e, want: d})
	}

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := w; i < len(qs)*4; i += workers {
				qq := qs[i%len(qs)]
				url := fmt.Sprintf("%s/dist-avoiding?graph=%s&source=%d&eps=0.3&v=%d&fu=%d&fv=%d",
					lc.URL(), fx.fp, fx.source, qq.v, qq.e[0], qq.e[1])
				resp, err := client.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d mid-churn", resp.StatusCode)
					return
				}
				if dr.Dist != qq.want {
					t.Errorf("concurrent routed dist-avoiding(v=%d, fail=%v) = %d, want %d",
						qq.v, qq.e, dr.Dist, qq.want)
					return
				}
			}
		}()
	}
	// Churn one shard at a time while the workers run: kill, let traffic
	// fail over, rejoin.
	go func() {
		defer close(stop)
		for _, i := range []int{2, 0} {
			lc.KillShard(i)
			time.Sleep(30 * time.Millisecond)
			lc.RestartShard(i)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-stop
}

// TestRouterBuildSingleFlight launches identical concurrent /build requests
// and asserts exactly-once fan-out: each structure is built once, on one of
// its owners, and installed once on its other owner, no matter how many
// clients raced.
func TestRouterBuildSingleFlight(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, _ := clusterGraph(150, 300, 51)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	req := server.BuildRequest{Graph: text.String(), Sources: []int{0, 9}, Eps: []float64{0.25, 0.4}}

	const clients = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var resp server.BuildResponse
			code, body := postJSON(t, lc.URL()+"/build", req, &resp)
			if code != http.StatusOK {
				t.Errorf("/build: %d %s", code, body)
				return
			}
			if len(resp.Structures) != 4 {
				t.Errorf("built %d structures, want 4", len(resp.Structures))
			}
		}()
	}
	close(start)
	wg.Wait()

	// Exactly once per structure: 4 pairs = 4 shard-side builds in total,
	// and with R=2 one install of each on its other owner, regardless of
	// how many of the 8 clients coalesced. (Even a flight miss is absorbed:
	// the builder's store hits, and the other owner's pull skips a held
	// record — the router flight just avoids the redundant fan-out traffic.)
	var shardBuilds, installs uint64
	for _, sh := range lc.Shards {
		st := sh.Store.Stats()
		shardBuilds += st.Builds
		installs += st.HandoffsIn
	}
	if shardBuilds != 4 || installs != 4 {
		t.Fatalf("shards performed %d builds and %d installs in total, want exactly 4 and 4 (4 structures, R=2)", shardBuilds, installs)
	}
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.StructuresTransferred != 4 {
		t.Fatalf("router counted %d structures transferred, want 4 (one install per structure)", rs.StructuresTransferred)
	}
	if rs.Builds+rs.BuildsCoalesced != clients {
		t.Fatalf("router flight accounting: %d builds + %d coalesced != %d clients",
			rs.Builds, rs.BuildsCoalesced, clients)
	}
	if rs.Builds == 0 {
		t.Fatal("router reports zero executed builds")
	}
}

func TestRouterStatsHealthReady(t *testing.T) {
	lc, err := StartLocal(3, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	var hr server.HealthResponse
	if code, body := getJSON(t, lc.URL()+"/healthz", &hr); code != http.StatusOK || !hr.OK || hr.Role != "router" {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	var rr RouterReadyResponse
	if code, body := getJSON(t, lc.URL()+"/readyz", &rr); code != http.StatusOK || !rr.Ready || rr.Shards != 3 {
		t.Fatalf("/readyz: %d %s", code, body)
	}
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.Role != "router" || rs.Replicas != 2 || len(rs.Shards) != 3 {
		t.Fatalf("unexpected router stats %+v", rs)
	}
	for _, sh := range rs.Shards {
		if sh.Stats == nil || sh.Stats.Role != "shard" {
			t.Fatalf("shard stats not gathered: %+v", sh)
		}
	}

	// With every shard down and probed, the router must report not-ready.
	for i := range lc.Shards {
		lc.KillShard(i)
	}
	ctx := t.Context()
	lc.Router.Membership().ProbeAll(ctx, &http.Client{Timeout: time.Second})
	lc.Router.Membership().ProbeAll(ctx, &http.Client{Timeout: time.Second}) // second strike marks down
	if code, _ := getJSON(t, lc.URL()+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with all shards down: %d, want 503", code)
	}
	// One shard back: ready again after a probe.
	lc.RestartShard(1)
	lc.Router.Membership().ProbeAll(ctx, &http.Client{Timeout: time.Second})
	if code, _ := getJSON(t, lc.URL()+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz after rejoin: %d, want 200", code)
	}
}

// TestRouterVertexDifferential drives the vertex failure model end to end
// through a 4-shard / R=2 cluster: /build with vertexSources fans the graph
// and the vertex structures onto the ring, then every failable vertex of
// the graph is queried through the router — point reads on
// /dist-avoiding-vertex and a mixed edge+vertex /batch-query — and checked
// against a local reference oracle, including while a shard is down and
// after it rejoins.
func TestRouterVertexDifferential(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, _ := clusterGraph(40, 60, 21)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	const source = 0
	var br server.BuildResponse
	code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{
		Graph:         text.String(),
		Sources:       []int{source},
		Eps:           []float64{0.3},
		VertexSources: []int{source},
	}, &br)
	if code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	if len(br.VertexStructures) != 1 {
		t.Fatalf("built %d vertex structures, want 1", len(br.VertexStructures))
	}

	// Replication factor 2 landed the vertex structure on two shard stores.
	fpParsed := uint64(0)
	if _, err := fmt.Sscanf(br.Fingerprint, "%016x", &fpParsed); err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, sh := range lc.Shards {
		if _, ok := sh.Store.GetVertex(fpParsed, source); ok {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("%d shards hold the vertex structure, want 2 (R=2)", holders)
	}

	ref, err := ftbfs.BuildVertex(g, source)
	if err != nil {
		t.Fatal(err)
	}
	ro := ref.Oracle()
	n := g.N()
	checkAll := func(phase string) {
		t.Helper()
		for w := 0; w < n; w++ {
			if w == source {
				continue
			}
			for _, v := range []int{w, (w * 13) % n, (w + 1) % n} {
				want, err := ro.DistAvoidingVertex(v, w)
				if err != nil {
					t.Fatal(err)
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				code, body := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&source=%d&v=%d&fw=%d",
					lc.URL(), br.Fingerprint, source, v, w), &dr)
				if code != http.StatusOK {
					t.Fatalf("%s: routed vertex query (v=%d, w=%d): %d %s", phase, v, w, code, body)
				}
				if dr.Dist != want {
					t.Fatalf("%s: routed dist(v=%d | w=%d failed) = %d, want %d", phase, v, w, dr.Dist, want)
				}
			}
		}
	}
	checkAll("all-up")

	// Kill each shard in turn: every vertex key keeps a live replica.
	for i := range lc.Shards {
		lc.KillShard(i)
		checkAll(fmt.Sprintf("shard%d-down", i))
		lc.RestartShard(i)
	}
	checkAll("after-rejoin")

	// Mixed-model batch through the scatter-gather path: edge and vertex
	// slots interleaved, plus a bad vertex slot erroring individually.
	est, err := ftbfs.Build(g, source, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eo := est.Oracle()
	var failable [][2]int
	for _, e := range est.Edges() {
		if !est.IsReinforced(e[0], e[1]) {
			failable = append(failable, e)
		}
	}
	eps := 0.3
	req := server.BatchQueryRequest{Graph: br.Fingerprint, Eps: &eps}
	type expect struct {
		dist int
		bad  bool
	}
	var expects []expect
	for j := 0; j < 32; j++ {
		if j%2 == 0 {
			w := 1 + j%(n-1)
			v := (j * 7) % n
			fw := w
			req.Queries = append(req.Queries, server.BatchQuery{V: v, FailedVertex: &fw})
			want, err := ro.DistAvoidingVertex(v, w)
			if err != nil {
				t.Fatal(err)
			}
			expects = append(expects, expect{dist: want})
		} else {
			e := failable[j%len(failable)]
			v := (j * 11) % n
			req.Queries = append(req.Queries, server.BatchQuery{V: v, Fail: e})
			want, err := eo.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			expects = append(expects, expect{dist: want})
		}
	}
	srcFail := source
	req.Queries = append(req.Queries, server.BatchQuery{V: 1, FailedVertex: &srcFail})
	expects = append(expects, expect{bad: true})

	var resp server.BatchQueryResponse
	code, body = postJSON(t, lc.URL()+"/batch-query", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	if len(resp.Dists) != len(expects) {
		t.Fatalf("batch: %d dists for %d slots", len(resp.Dists), len(expects))
	}
	for i, ex := range expects {
		if ex.bad {
			if resp.Errors == nil || resp.Errors[i] == "" {
				t.Fatalf("batch slot %d: bad slot did not error", i)
			}
			continue
		}
		if resp.Errors != nil && resp.Errors[i] != "" {
			t.Fatalf("batch slot %d errored: %s", i, resp.Errors[i])
		}
		if resp.Dists[i] != ex.dist {
			t.Fatalf("batch slot %d: dist %d, want %d", i, resp.Dists[i], ex.dist)
		}
	}
}

// TestRouterVertexConcurrentChurn mixes concurrent routed vertex queries
// with shard kill/restart churn; run under -race in CI. Answers must either
// match the reference or fail with a transport-visible error status — never
// silently differ.
func TestRouterVertexConcurrentChurn(t *testing.T) {
	lc, err := StartLocal(3, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, _ := clusterGraph(30, 45, 22)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var br server.BuildResponse
	code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{
		Graph:         text.String(),
		VertexSources: []int{0},
	}, &br)
	if code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	ref, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	ro := ref.Oracle()
	want := make([][]int, n)
	for w := 1; w < n; w++ {
		want[w] = make([]int, n)
		for v := 0; v < n; v++ {
			d, err := ro.DistAvoidingVertex(v, w)
			if err != nil {
				t.Fatal(err)
			}
			want[w][v] = d
		}
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			lc.KillShard(i % len(lc.Shards))
			time.Sleep(5 * time.Millisecond)
			lc.RestartShard(i % len(lc.Shards))
			i++
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for gid := 0; gid < 4; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + gid)))
			client := &http.Client{Timeout: 5 * time.Second}
			for iter := 0; iter < 150; iter++ {
				w := 1 + rng.Intn(n-1)
				v := rng.Intn(n)
				resp, err := client.Get(fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&v=%d&fw=%d",
					lc.URL(), br.Fingerprint, v, w))
				if err != nil {
					continue // router itself unreachable mid-churn: not a correctness bug
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				deco := json.NewDecoder(resp.Body)
				code := resp.StatusCode
				decErr := deco.Decode(&dr)
				resp.Body.Close()
				if code != http.StatusOK {
					continue // visible failure is acceptable under churn
				}
				if decErr != nil {
					select {
					case errc <- fmt.Errorf("undecodable 200: %v", decErr):
					default:
					}
					return
				}
				if dr.Dist != want[w][v] {
					select {
					case errc <- fmt.Errorf("silent wrong answer (v=%d, w=%d): %d != %d", v, w, dr.Dist, want[w][v]):
					default:
					}
					return
				}
			}
		}(gid)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// recordingTransport records the path of every HTTP request the router
// sends a shard, so a test can prove which shard calls still ride HTTP.
type recordingTransport struct {
	mu    sync.Mutex
	paths map[string]int
}

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	rt.paths[r.URL.Path]++
	rt.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (rt *recordingTransport) snapshot() map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int, len(rt.paths))
	for p, n := range rt.paths {
		out[p] = n
	}
	return out
}

// TestRouterWireFastPathCountersAndFallback pins down how routed traffic
// travels now that the binary protocol is the router's only path to a shard
// for points, batches and mutations:
//   - with every shard's HTTP listener closed and its wire listener up, every
//     query kind and a mutation still answer, match the single-node oracle,
//     and move the wire counters; the router's only shard HTTP calls are the
//     control plane's;
//   - with the wire listeners down (HTTP up), requests fail over and are then
//     refused — never answered wrongly — and the replicas' breakers take the
//     strikes, whether the member's wire address is stale or, after a probe,
//     unknown;
//   - listeners restarted on fresh ports are learned again by probes and
//     answer correctly.
func TestRouterWireFastPathCountersAndFallback(t *testing.T) {
	rec := &recordingTransport{paths: map[string]int{}}
	lc, err := StartLocal(4, LocalOptions{Replicas: 2, Router: RouterOptions{
		Client: &http.Client{Transport: rec, Timeout: 30 * time.Second},
		// Recovery below must be probe-driven, not the cooldown timer.
		BreakerCooldown: time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	ms := lc.Router.Membership()
	probe := func() { ms.ProbeAll(context.Background(), &http.Client{Timeout: 2 * time.Second}) }
	// A shard without a wire listener could never answer a routed query.
	if _, err := lc.Router.AddShard(context.Background(), "no-wire", lc.Shards[0].Addr(), ""); err == nil {
		t.Fatal("AddShard accepted a shard with no wire address")
	}

	g, edges := clusterGraph(60, 90, 41)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var br server.BuildResponse
	if code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{
		Graph: text.String(), Sources: []int{0}, Eps: []float64{0.3}, VertexSources: []int{0},
	}, &br); code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	// truth mirrors what the shards serve: the edge structure's oracle and
	// failable edges, and the vertex structure's oracle.
	var fx fixture
	var vo *ftbfs.VertexOracle
	truth := func(g *ftbfs.Graph, est *ftbfs.Structure) {
		t.Helper()
		vst, err := ftbfs.BuildVertex(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		fx = fixture{fp: br.Fingerprint, eps: 0.3, oracle: est.Oracle(), n: g.N()}
		for _, e := range edges {
			if g.HasEdge(e[0], e[1]) && !est.IsReinforced(e[0], e[1]) {
				fx.edges = append(fx.edges, e)
			}
		}
		vo = vst.Oracle()
	}
	est, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	truth(g, est)

	// sample asks every query kind and requires the oracle's answer.
	sample := func(label string) {
		t.Helper()
		for i := 0; i < len(fx.edges); i += 4 {
			checkPoint(t, lc.URL(), fx, (i*19)%fx.n, fx.edges[i])
		}
		for v := 0; v < fx.n; v += 9 {
			var dr distResponse
			if code, body := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&eps=0.3&v=%d", lc.URL(), fx.fp, v), &dr); code != http.StatusOK || dr.Dist != fx.oracle.Dist(v) {
				t.Fatalf("[%s] routed dist(%d): %d %s, want %d", label, v, code, body, fx.oracle.Dist(v))
			}
		}
		eps := 0.3
		req := server.BatchQueryRequest{Graph: fx.fp, Eps: &eps}
		var want []int
		for w := 1; w < fx.n; w += 7 {
			v := (w * 13) % fx.n
			dw, err := vo.DistAvoidingVertex(v, w)
			if err != nil {
				t.Fatal(err)
			}
			var dr distResponse
			if code, body := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&v=%d&fw=%d", lc.URL(), fx.fp, v, w), &dr); code != http.StatusOK || dr.Dist != dw {
				t.Fatalf("[%s] routed vertex dist(v=%d, w=%d): %d %s, want %d", label, v, w, code, body, dw)
			}
			fw := w
			e := fx.edges[w%len(fx.edges)]
			de, err := fx.oracle.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			req.Queries = append(req.Queries, server.BatchQuery{V: v, FailedVertex: &fw}, server.BatchQuery{V: v, Fail: e})
			want = append(want, dw, de)
		}
		var resp server.BatchQueryResponse
		code, body := postJSON(t, lc.URL()+"/batch-query", req, &resp)
		if code != http.StatusOK || resp.Errors != nil || len(resp.Dists) != len(want) {
			t.Fatalf("[%s] routed batch: %d %s", label, code, body)
		}
		for i := range want {
			if resp.Dists[i] != want[i] {
				t.Fatalf("[%s] batch slot %d: %d, want %d", label, i, resp.Dists[i], want[i])
			}
		}
	}
	rm := lc.Router.rm
	counts := func() [4]uint64 {
		return [4]uint64{rm.wirePoints.Value(), rm.wireBatches.Value(), rm.wireMutations.Value(), rm.wireFallbacks.Value()}
	}

	// Phase 1: no shard answers HTTP; everything routed still answers.
	for _, sh := range lc.Shards {
		sh.ts.Close()
		sh.ts = nil
	}
	httpBefore, before := rec.snapshot(), counts()
	sample("http-closed")
	var victim [2]int
	for _, e := range edges {
		if !est.Contains(e[0], e[1]) {
			victim = e
			break
		}
	}
	muts := []ftbfs.Mutation{{Op: ftbfs.MutDelete, U: victim[0], V: victim[1]}}
	newG, delta, err := g.Mutate(muts)
	if err != nil {
		t.Fatal(err)
	}
	code, mr, body, err := mutateVia(http.DefaultClient, lc.URL(), fx.fp, []server.MutationJSON{{Op: "delete", U: victim[0], V: victim[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || mr.Gen != 1 || mr.Fingerprint != fmt.Sprintf("%016x", newG.Fingerprint()) {
		t.Fatalf("/mutate with HTTP closed: %d %s, want gen 1 fp %016x", code, body, newG.Fingerprint())
	}
	if next, ok := ftbfs.DeltaRebuild(est, newG, delta); ok {
		est = next
	} else if est, err = ftbfs.Build(newG, 0, 0.3); err != nil {
		t.Fatal(err)
	}
	truth(newG, est)
	sample("http-closed-gen1")
	after := counts()
	if after[0] <= before[0] || after[1] <= before[1] || after[2] <= before[2] {
		t.Fatalf("wire points/batches/mutations %v -> %v: some traffic did not ride the wire", before[:3], after[:3])
	}
	if after[3] != before[3] {
		t.Fatalf("healthy wire listeners saw %d transport faults", after[3]-before[3])
	}
	if httpAfter := rec.snapshot(); fmt.Sprint(httpAfter) != fmt.Sprint(httpBefore) {
		t.Fatalf("routed queries and mutations sent HTTP to shards: %v -> %v", httpBefore, httpAfter)
	}
	for path := range rec.snapshot() {
		switch {
		case path == "/build", path == "/stats", path == "/metrics.json", path == "/readyz",
			strings.HasPrefix(path, "/handoff/"):
		default:
			t.Fatalf("router sent a shard HTTP %s", path)
		}
	}

	// Phase 2: HTTP back, wire down. Members still hold the dead wire
	// addresses; every attempt fails over and the request is refused.
	for _, sh := range lc.Shards {
		sh.startHTTP()
		ms.Join(sh.ID, sh.ts.URL) // new HTTP port; a rejoin also resets the breakers
		sh.stopWire()
	}
	refused := func(label string) {
		t.Helper()
		for i := 0; i < 8; i++ {
			e := fx.edges[i%len(fx.edges)]
			q := fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=%d&fu=%d&fv=%d", lc.URL(), fx.fp, i, e[0], e[1])
			if code, body := getJSON(t, q, nil); code < http.StatusInternalServerError {
				t.Fatalf("[%s] point with every wire listener down: %d %s", label, code, body)
			}
		}
		eps := 0.3
		var resp server.BatchQueryResponse
		code, body := postJSON(t, lc.URL()+"/batch-query", server.BatchQueryRequest{Graph: fx.fp, Eps: &eps,
			Queries: []server.BatchQuery{{V: 3, Fail: fx.edges[0]}, {V: 4, Fail: fx.edges[1]}}}, &resp)
		if code != http.StatusOK || len(resp.Errors) != 2 || resp.Errors[0] == "" || resp.Errors[1] == "" {
			t.Fatalf("[%s] batch with every wire listener down: %d %s, want two error slots", label, code, body)
		}
		e := fx.edges[len(fx.edges)-1]
		if code, _, body, err := mutateVia(http.DefaultClient, lc.URL(), fx.fp, []server.MutationJSON{{Op: "delete", U: e[0], V: e[1]}}); err != nil || code < http.StatusInternalServerError {
			t.Fatalf("[%s] /mutate with every wire listener down: %d %s (%v)", label, code, body, err)
		}
	}
	before = counts()
	refused("wire-dead")
	if counts()[3] <= before[3] {
		t.Fatal("wire_fallbacks did not count the transport faults")
	}
	eps := 0.3
	k, err := (&server.QueryRequest{Graph: fx.fp, Eps: &eps}).EdgeKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms.Owners(KeyHash(k)) {
		if _, opens := m.breakerSnapshot(); opens == 0 {
			t.Fatalf("owner %s's breaker never opened under sustained transport faults", m.ID)
		}
	}
	probe() // /readyz now advertises no wire address: members forget it
	for _, m := range ms.Members() {
		if m.WireAddr() != "" {
			t.Fatalf("probe kept shard %s's dead wire address %s", m.ID, m.WireAddr())
		}
	}
	refused("wire-unknown")
	lin, err := strconv.ParseUint(fx.fp, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range lc.Shards {
		if gg, ok := sh.Store.Graph(lin); ok && gg.Generation() != 1 {
			t.Fatalf("shard %s moved to gen %d on a refused mutation", sh.ID, gg.Generation())
		}
	}

	// Phase 3: wire listeners restart on fresh ports; a probe sweep learns
	// them (and arms the open breakers' half-open probes), and every query
	// kind answers correctly again.
	for _, sh := range lc.Shards {
		if err := sh.startWire(); err != nil {
			t.Fatal(err)
		}
	}
	probe()
	before = counts()
	sample("wire-restarted")
	if after := counts(); after[0] <= before[0] || after[3] != before[3] {
		t.Fatalf("after restart: wire counters %v -> %v", before, after)
	}
}
