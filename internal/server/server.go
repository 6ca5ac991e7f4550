// Package server exposes the FT-BFS query service over HTTP/JSON: the
// operational layer that answers "dist(s, v) avoiding failed edge e" against
// structures held in an internal/store registry. Oracles are not
// concurrency-safe, so every query checks one out of the structure's
// OraclePool for the duration of the request; structures themselves are
// immutable and shared.
//
// Failure queries route through each structure's QueryPlan (built once by
// the store, shared by every oracle): a failed edge off H's BFS tree is an
// O(1) lookup of the cached intact vector, a failed tree edge repairs only
// the subtree hanging below it, and /batch-query vectors are answered in
// failed-edge groups so one repair serves every target of the same failure.
// The repair scratches travel inside the pooled oracles, so the steady-state
// hot path allocates nothing.
//
// Endpoints:
//
//	POST /build          register a graph and build structures for it
//	POST /mutate         apply an edge-mutation batch; atomic generation swap
//	GET|POST /dist           dist(s, v) in the intact structure H
//	GET|POST /dist-avoiding  dist(s, v) in H minus one failed edge
//	GET|POST /dist-avoiding-vertex  dist(s, v) in H minus one failed VERTEX
//	POST /batch-query    a vector of failure queries, per-query error slots
//	GET  /handoff/keys   inventory of exportable structure keys
//	POST /handoff/pull   pull structures from a peer shard over its wire
//	                     address (rebalance; handoff.go)
//	GET  /stats          store and server counters
//	GET  /healthz        liveness: identity + uptime, always 200 while up
//	GET  /readyz         readiness: 503 while draining, else store summary
//
// /dist-avoiding-vertex serves the vertex failure model: it addresses a
// vertex-failure structure (keyed by graph + source only — the vertex
// construction has no ε or algorithm dimension), built through the store on
// first use. Both models resolve through one helper to the structure's
// OraclePool — one plan, oracle and pool type serve edge and vertex
// structures alike — and every point query answers in one OraclePool.Do: an
// off-tree-path failed vertex is an O(1) read of the intact vector, a failed
// tree vertex repairs only its subtree.
//
// A /batch-query vector may span several structures (each query can carry
// its own graph/source/eps/alg, defaulting to the request-level address) and
// never fails as a whole on one bad query: the response carries a parallel
// error slot per query, which is what a scatter-gather router needs to merge
// partial results. A slot carrying "failedVertex" instead of "fail" is a
// vertex-failure query; both models may mix freely in one vector.
//
// The HTTP edge (edge.go) is written once for both tiers: Edge bounds the
// body, applies the deadline budget, traces, sheds load, times every route
// and serves /build, /mutate, the point endpoints and /batch-query through a
// four-method Backend (point, batch, mutate, build) that takes requests in
// wire form. *Server implements Backend with its store; the cluster router
// implements it with its shards, so a router answers those endpoints
// exactly as a single node does. batchbody.go owns /batch-query body
// decoding; wire.go owns the HTTP→wire conversion and the dispatch behind
// both transports.
//
// Distances use -1 for "unreachable". Errors are {"error": "..."} with a
// 4xx/5xx status.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/store"
	"ftbfs/internal/telemetry"
	"ftbfs/internal/wire"
)

// DefaultEps is the tradeoff parameter assumed when a request leaves ε out.
const DefaultEps = 0.25

// MaxBuildN caps the vertex count of a /build request: a single small JSON
// body must not be able to make the server allocate gigabytes of adjacency.
const MaxBuildN = 1_000_000

// MaxBodyBytes bounds every JSON request body (graph text for 1M edges is
// well under this). The edge applies it on both tiers. It is the wire's
// record bound, so any graph /build accepts reaches a key's other owners in
// one TGraph frame.
const MaxBodyBytes = wire.MaxRecord

// BudgetHeader carries a request's deadline budget in whole milliseconds
// over HTTP — the JSON-surface twin of the wire frame's budget field. The
// router stamps the remaining budget on every forwarded request; a server
// receiving it answers 504 instead of working past the caller's deadline.
const BudgetHeader = "X-Ftbfs-Budget-Ms"

// Default work-queue limits (see SetWorkLimits). Generous: shedding is a
// last resort against collapse, not a throttle — a healthy node under normal
// load never sheds.
const (
	DefaultMaxInflight = 256
	DefaultMaxQueued   = 512
)

// limiter is the server-wide bounded work queue behind load shedding: at
// most cap(slots) requests run, at most maxQueue more wait, everyone else is
// shed with 503 + Retry-After. Draining servers skip the queue entirely —
// new work fails fast while in-flight requests finish.
type limiter struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
	wait     *telemetry.Histogram // queue-wait times, behind retryAfter
}

func newLimiter(inflight, queue int, wait *telemetry.Histogram) *limiter {
	if inflight < 1 {
		inflight = 1
	}
	return &limiter{slots: make(chan struct{}, inflight), maxQueue: int64(queue), wait: wait}
}

// acquire takes a work slot, queueing (bounded) until ctx expires. It
// reports false when the request must be shed or has outlived its budget —
// the caller distinguishes via ctx.Err(). Only the queued path records a
// wait observation; the immediate-slot fast path never reads the clock.
func (l *limiter) acquire(ctx context.Context, draining bool) bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
	}
	if draining {
		return false
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		return false
	}
	defer l.queued.Add(-1)
	start := time.Now()
	ok := false
	select {
	case l.slots <- struct{}{}:
		ok = true
	case <-ctx.Done():
	}
	l.wait.Observe(time.Since(start))
	return ok
}

func (l *limiter) release() { <-l.slots }

// retryAfter derives the Retry-After hint on shed responses from the
// observed queue-wait p50, clamped to [1, 5] seconds: a lightly backed-up
// node invites a quick retry, a deeply backed-up one pushes callers further
// out instead of inviting a synchronized stampede one second later.
func (l *limiter) retryAfter() string {
	secs := (l.wait.Quantile(0.5) + 1e9 - 1) / 1e9
	return strconv.FormatInt(min(max(secs, 1), 5), 10)
}

// identity names a node for /healthz and /stats; held behind an atomic
// pointer because `serve` only learns its default ID (the bound address)
// after the listener is up, when probes may already be hitting /healthz.
type identity struct {
	role string // "" for standalone, "shard" under a cluster router
	id   string
}

// Server is the HTTP handler of the query service: the Edge over its own
// dispatch.
type Server struct {
	store *store.Store
	edge  *Edge
	start time.Time

	ident atomic.Pointer[identity]

	// groupSem bounds concurrent /batch-query group resolutions across ALL
	// requests: each cold group is a synchronous build-through, and without
	// a server-wide cap a burst of many-structure batches would amplify
	// into unbounded concurrent builds.
	groupSem chan struct{}

	// wireAddr is the advertised binary-protocol listen address, empty when
	// the wire listener is off. /healthz and /readyz carry it so the cluster
	// router's probes learn where to send queries without extra
	// configuration.
	wireAddr atomic.Pointer[string]

	// work bounds concurrent query/build work across both transports; see
	// limiter. Swapped atomically so SetWorkLimits is safe while serving.
	work atomic.Pointer[limiter]

	// m backs every request counter and latency histogram.
	m *serverMetrics

	draining atomic.Bool // graceful shutdown in progress (readyz gates on it)
}

// New returns a service over the given registry.
func New(st *store.Store) *Server {
	s := &Server{
		store:    st,
		start:    time.Now(),
		groupSem: make(chan struct{}, 8),
		m:        newServerMetrics(),
	}
	s.work.Store(newLimiter(DefaultMaxInflight, DefaultMaxQueued, s.m.queueWait))
	s.edge = NewEdge(s, EdgeOptions{
		Span:     "shard.handle",
		Requests: s.m.requests,
		Errors:   s.m.errs,
		Route:    s.m.route,
		admit:    s.admit,
	})
	s.edge.Handle("/handoff/keys", s.handleHandoffKeys)
	s.edge.Handle("/handoff/pull", s.handleHandoffPull)
	s.edge.Handle("/stats", s.handleStats)
	s.edge.Handle("/healthz", s.handleHealthz)
	s.edge.Handle("/readyz", s.handleReadyz)
	s.edge.Handle("/metrics", s.handleMetrics)
	s.edge.Handle("/metrics.json", s.handleMetricsJSON)
	return s
}

// SetWorkLimits resizes the load shedder: at most inflight requests run
// concurrently, at most queue more wait for a slot, the rest are answered
// 503 + Retry-After. Queries and builds on both transports count; health,
// stats and handoff endpoints are exempt (probes and rebalances must work on
// an overloaded node). Safe to call while serving — in-flight requests
// release into the limiter they acquired from.
func (s *Server) SetWorkLimits(inflight, queue int) {
	s.work.Store(newLimiter(inflight, queue, s.m.queueWait))
}

// SetIdentity names the node for /healthz and /stats; a cluster shard sets
// role "shard" plus its member ID so router probes and operators can tell
// nodes apart. Safe to call while the server is already handling requests.
func (s *Server) SetIdentity(role, id string) {
	s.ident.Store(&identity{role: role, id: id})
}

// identitySnapshot returns the current (role, id), empty before SetIdentity.
func (s *Server) identitySnapshot() identity {
	if p := s.ident.Load(); p != nil {
		return *p
	}
	return identity{}
}

// SetDraining flips the readiness gate: a draining server answers /readyz
// with 503 so load balancers and the cluster router stop sending it new
// work while in-flight requests finish. Serve calls it on shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// SetWireAddr advertises the binary-protocol listen address on /healthz and
// /readyz (empty = wire serving off). Safe to call while serving — a
// restarted wire listener on a new port re-advertises itself and probing
// routers pick the change up.
func (s *Server) SetWireAddr(addr string) { s.wireAddr.Store(&addr) }

// WireAddr returns the advertised binary-protocol address, "" when unset.
func (s *Server) WireAddr() string {
	if p := s.wireAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// ServeHTTP implements http.Handler through the shared edge (Edge).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.edge.ServeHTTP(w, r) }

// admit passes a work-bearing request of either transport through the load
// shedder. It refuses a shed request (503, counted in ftbfs_shed_total) and
// one whose budget ran out while queued (504); otherwise the caller owns a
// work slot and must release it. The limiter comes back either way: a shed
// HTTP reply reads its Retry-After from it.
func (s *Server) admit(ctx context.Context) (*limiter, *wire.Error) {
	work := s.work.Load()
	if work.acquire(ctx, s.draining.Load()) {
		return work, nil
	}
	if ctx.Err() != nil {
		// The budget ran out while queued: the caller is gone, answer 504 so
		// retries count it against the right failure mode.
		return work, &wire.Error{Code: http.StatusGatewayTimeout, Msg: "deadline budget exhausted while queued"}
	}
	s.m.shed.Inc()
	return work, &wire.Error{Code: http.StatusServiceUnavailable, Msg: "server overloaded; retry later"}
}

// handleMetrics serves the shard's Prometheus exposition: the server's own
// registry merged with the store's, one scrape surface per node.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := telemetry.Merge(s.m.reg.Snapshot(), s.store.Telemetry().Snapshot())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WriteProm(w)
}

// handleMetricsJSON serves the same merged snapshot as JSON — the payload
// the cluster router scrapes and merges into /metrics/fleet.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	snap := telemetry.Merge(s.m.reg.Snapshot(), s.store.Telemetry().Snapshot())
	WriteJSON(w, http.StatusOK, snap)
}

// BuildPair names one (source, ε) structure of a /build request.
type BuildPair struct {
	Source int     `json:"source"`
	Eps    float64 `json:"eps"`
}

// BuildRequest is the body of POST /build. The graph arrives either as the
// library text format (Graph) or inline as a vertex count plus an edge list
// (N, Edges). Edge structures are built for the explicit Pairs when given,
// otherwise for the cross product Sources × Eps; empty defaults are source 0,
// ε = DefaultEps, algorithm auto. The cluster router uses Pairs to hand each
// shard exactly the subset of structures it owns, which is generally not a
// cross product. VertexSources additionally builds one VERTEX-failure
// structure per listed source (the vertex model has no ε/algorithm
// dimension); a request carrying only VertexSources builds no edge
// structures at all.
type BuildRequest struct {
	Graph         string      `json:"graph,omitempty"`
	N             int         `json:"n,omitempty"`
	Edges         [][2]int    `json:"edges,omitempty"`
	Sources       []int       `json:"sources,omitempty"`
	Eps           []float64   `json:"eps,omitempty"`
	Pairs         []BuildPair `json:"pairs,omitempty"`
	Alg           string      `json:"alg,omitempty"`
	VertexSources []int       `json:"vertexSources,omitempty"`
}

// ResolvedPairs expands the request into the explicit (source, ε) list of
// edge structures it asks for: Pairs verbatim when present, otherwise
// Sources × Eps with the usual defaults. A vertex-only request (nothing but
// VertexSources) resolves to no edge pairs — the implicit default pair is a
// convenience for edge clients, not an obligation.
func (req *BuildRequest) ResolvedPairs() []BuildPair {
	if len(req.Pairs) > 0 {
		return req.Pairs
	}
	if len(req.Sources) == 0 && len(req.Eps) == 0 && len(req.VertexSources) > 0 {
		return nil
	}
	sources := req.Sources
	if len(sources) == 0 {
		sources = []int{0}
	}
	epsGrid := req.Eps
	if len(epsGrid) == 0 {
		epsGrid = []float64{DefaultEps}
	}
	pairs := make([]BuildPair, 0, len(sources)*len(epsGrid))
	for _, src := range sources {
		for _, eps := range epsGrid {
			pairs = append(pairs, BuildPair{Source: src, Eps: eps})
		}
	}
	return pairs
}

// checkTextGraphSize rejects a text-format graph whose "p <n> <m>" header
// declares more than MaxBuildN vertices before any adjacency is allocated.
func checkTextGraphSize(text string) error {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "p" {
			return fmt.Errorf("bad graph text: first record %q is not a p-header", line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("bad graph text: vertex count %q", fields[1])
		}
		if n > MaxBuildN {
			return fmt.Errorf("n = %d exceeds the limit of %d vertices", n, MaxBuildN)
		}
		return nil
	}
	return fmt.Errorf("empty graph text")
}

// GraphFromBuildRequest materialises and validates the graph a BuildRequest
// carries (text form or inline n+edges), rejecting oversized or malformed
// graphs before any work.
func GraphFromBuildRequest(req *BuildRequest) (*ftbfs.Graph, error) {
	switch {
	case req.Graph != "":
		if err := checkTextGraphSize(req.Graph); err != nil {
			return nil, err
		}
		g, err := ftbfs.ReadGraph(strings.NewReader(req.Graph))
		if err != nil {
			return nil, fmt.Errorf("bad graph text: %w", err)
		}
		return g, nil
	case req.N > 0:
		if req.N > MaxBuildN {
			return nil, fmt.Errorf("n = %d exceeds the limit of %d vertices", req.N, MaxBuildN)
		}
		g := ftbfs.NewGraph(req.N)
		for _, e := range req.Edges {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				return nil, err
			}
		}
		return g, nil
	default:
		return nil, fmt.Errorf(`provide "graph" (text format) or "n"+"edges"`)
	}
}

// StructureInfo summarises one built structure in a BuildResponse.
type StructureInfo struct {
	Source     int     `json:"source"`
	Eps        float64 `json:"eps"`
	Alg        string  `json:"alg"`
	Size       int     `json:"size"`
	Backup     int     `json:"backup"`
	Reinforced int     `json:"reinforced"`
}

// VertexStructureInfo summarises one built vertex-failure structure in a
// BuildResponse.
type VertexStructureInfo struct {
	Source int `json:"source"`
	Size   int `json:"size"`
	Pairs  int `json:"pairs"`
}

// BuildResponse is the reply of POST /build. Fingerprint keys every
// subsequent query for this graph. VertexStructures is parallel to the
// request's VertexSources.
type BuildResponse struct {
	Fingerprint      string                `json:"fingerprint"`
	N                int                   `json:"n"`
	M                int                   `json:"m"`
	Structures       []StructureInfo       `json:"structures"`
	VertexStructures []VertexStructureInfo `json:"vertexStructures,omitempty"`
}

// Build registers g and builds the structures the request asks for
// (Backend): the dispatch behind POST /build.
func (s *Server) Build(ctx context.Context, g *ftbfs.Graph, req *BuildRequest, alg ftbfs.Algorithm, pairs []BuildPair) (*BuildResponse, *wire.Error) {
	fp, err := s.store.AddGraph(g)
	if err != nil {
		return nil, refusal(err)
	}
	reqs := make([]store.Req, len(pairs))
	for i, p := range pairs {
		reqs[i] = store.Req{Source: p.Source, Eps: p.Eps, Alg: alg}
	}
	sts, err := s.store.GetOrBuildMany(ctx, fp, reqs)
	if err != nil {
		return nil, refusal(err)
	}
	resp := &BuildResponse{Fingerprint: fmt.Sprintf("%016x", fp), N: g.N(), M: g.M()}
	for i, st := range sts {
		resp.Structures = append(resp.Structures, StructureInfo{
			Source:     reqs[i].Source,
			Eps:        reqs[i].Eps,
			Alg:        alg.String(),
			Size:       st.Size(),
			Backup:     st.BackupCount(),
			Reinforced: st.ReinforcedCount(),
		})
	}
	for _, src := range req.VertexSources {
		vst, err := s.store.GetOrBuildVertex(ctx, fp, src)
		if err != nil {
			return nil, refusal(err)
		}
		resp.VertexStructures = append(resp.VertexStructures, VertexStructureInfo{
			Source: src,
			Size:   vst.Size(),
			Pairs:  vst.Pairs(),
		})
	}
	return resp, nil
}

// MutationJSON is one edge mutation of a /mutate request: op "insert" or
// "delete" plus the edge's endpoints.
type MutationJSON struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

// MutateRequest is the body of POST /mutate: the graph's lineage (the
// fingerprint /build returned — stable across generations) plus an ordered
// mutation batch. The batch applies atomically: one invalid mutation fails
// the whole batch and the serving generation does not change.
type MutateRequest struct {
	Graph     string         `json:"graph"`
	Mutations []MutationJSON `json:"mutations"`
}

// MutateResponse is the reply of POST /mutate: the new serving generation's
// identity plus how each resident structure crossed over (the convergence
// ledger the cluster router aggregates). Graph echoes the lineage — the key
// queries keep using; Fingerprint is the new generation's content identity.
type MutateResponse struct {
	Graph         string `json:"graph"`
	Gen           uint64 `json:"gen"`
	Fingerprint   string `json:"fingerprint"`
	RebuildsDelta int    `json:"rebuildsDelta"`
	RebuildsFull  int    `json:"rebuildsFull"`
}

// QueryRequest addresses one structure plus one (target, failure) query.
// GET requests carry the same fields as URL parameters (graph, source, eps,
// alg, v, fu, fv, fw). V is a pointer so an omitted target is
// distinguishable from vertex 0 — the distance endpoints reject it as
// malformed; FailedVertex (fw) likewise, and its presence switches the
// request to the vertex failure model (eps/alg are then ignored: the
// vertex structure has neither dimension).
type QueryRequest struct {
	Graph        string   `json:"graph"`
	Source       int      `json:"source"`
	Eps          *float64 `json:"eps,omitempty"`
	Alg          string   `json:"alg,omitempty"`
	V            *int     `json:"v,omitempty"`
	Fail         *[2]int  `json:"fail,omitempty"`
	FailedVertex *int     `json:"failedVertex,omitempty"`
}

// parseGraph parses the hex graph fingerprint of a structure address.
func parseGraph(graphHex string) (uint64, error) {
	fp, err := strconv.ParseUint(graphHex, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad graph fingerprint %q", graphHex)
	}
	return fp, nil
}

// resolveKey turns an edge-model structure address, its graph fingerprint
// parsed, into the registry key the router and the shard server agree on —
// routing hashes exactly what the store keys.
func resolveKey(fp uint64, source int, eps *float64, algName string) (store.Key, error) {
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		return store.Key{}, err
	}
	e := DefaultEps
	if eps != nil {
		e = *eps
	}
	return edgeKey(fp, source, e, int(alg))
}

// edgeKey is the one validator of an edge-model key, whichever entry point
// (JSON, wire point, handoff) addresses it: ε must be finite, -0 folds to
// +0 (JSON "-0" parses to negative zero) so the key — and the cluster ring
// position derived from its bits — is unique, and the algorithm code must
// name a construction.
func edgeKey(fp uint64, source int, eps float64, alg int) (store.Key, error) {
	if math.IsNaN(eps) || math.IsInf(eps, 0) {
		return store.Key{}, fmt.Errorf("eps must be finite, got %v", eps)
	}
	if eps == 0 {
		eps = 0
	}
	if alg < 0 || alg > int(core.Greedy) {
		return store.Key{}, fmt.Errorf("unknown algorithm code %d", alg)
	}
	return store.Key{Graph: fp, Source: source, Eps: eps, Alg: core.Algorithm(alg)}, nil
}

// EdgeKey resolves the edge-model structure key the request addresses —
// what /dist and /dist-avoiding serve. A stray failedVertex/fw field does
// not change the model: the endpoint, not the parameter, picks the failure
// model (Wire).
func (q *QueryRequest) EdgeKey() (store.Key, error) {
	fp, err := parseGraph(q.Graph)
	if err != nil {
		return store.Key{}, err
	}
	return resolveKey(fp, q.Source, q.Eps, q.Alg)
}

// VertexKey resolves the vertex-model structure key the request addresses —
// what /dist-avoiding-vertex serves: graph + source only, ε and algorithm
// pinned at their zero values by store.VertexKey so every addressing of one
// vertex structure maps to one key — and one cluster ring position.
func (q *QueryRequest) VertexKey() (store.Key, error) {
	fp, err := parseGraph(q.Graph)
	if err != nil {
		return store.Key{}, err
	}
	return store.VertexKey(fp, q.Source), nil
}

// ParseQuery decodes a QueryRequest from a POST body or GET parameters.
func ParseQuery(r *http.Request) (QueryRequest, error) {
	var q QueryRequest
	if r.Method == http.MethodPost {
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			return q, fmt.Errorf("bad body: %w", err)
		}
		return q, nil
	}
	if r.Method != http.MethodGet {
		return q, fmt.Errorf("GET or POST required")
	}
	vals := r.URL.Query()
	q.Graph = vals.Get("graph")
	q.Alg = vals.Get("alg")
	intParam := func(name string, dst *int) error {
		s := vals.Get(name)
		if s == "" {
			return nil
		}
		x, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bad %s=%q", name, s)
		}
		*dst = x
		return nil
	}
	if err := intParam("source", &q.Source); err != nil {
		return q, err
	}
	if vals.Get("v") != "" {
		var v int
		if err := intParam("v", &v); err != nil {
			return q, err
		}
		q.V = &v
	}
	if s := vals.Get("eps"); s != "" {
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return q, fmt.Errorf("bad eps=%q", s)
		}
		q.Eps = &x
	}
	if vals.Get("fu") != "" || vals.Get("fv") != "" {
		// Half a failed edge is a malformed query, not "the other endpoint
		// is vertex 0" — answering that would be confidently wrong.
		if vals.Get("fu") == "" || vals.Get("fv") == "" {
			return q, fmt.Errorf("failed edge needs both fu= and fv=")
		}
		var fail [2]int
		if err := intParam("fu", &fail[0]); err != nil {
			return q, err
		}
		if err := intParam("fv", &fail[1]); err != nil {
			return q, err
		}
		q.Fail = &fail
	}
	if vals.Get("fw") != "" {
		var fw int
		if err := intParam("fw", &fw); err != nil {
			return q, err
		}
		q.FailedVertex = &fw
	}
	return q, nil
}

// UnknownGraphPrefix starts every UnknownGraphError message. It is a wire
// contract, not just wording: per-slot /batch-query errors travel as
// strings, and the cluster router matches this prefix to tell retryable
// shard state ("this replica is cold") from a final verdict on the query.
const UnknownGraphPrefix = "unknown graph "

// UnknownGraphError reports a query addressing a graph this node has not
// registered. It maps to 404 rather than 400: on a cluster shard the graph
// may simply not have reached this replica yet, so the router treats 404 as
// retryable shard state while every other 4xx is a definitive client error
// relayed without burning the remaining replicas.
type UnknownGraphError struct{ Fingerprint uint64 }

func (e *UnknownGraphError) Error() string {
	return fmt.Sprintf("%s%016x (POST /build first)", UnknownGraphPrefix, e.Fingerprint)
}

// statusFor classifies an error: a spent deadline budget is 504 (the caller
// stopped waiting — retryable against a faster replica), persist-directory
// faults are the server's (503-adjacent 500), an unknown graph is 404
// (absent state), everything else on these paths is caused by the request
// (invalid parameters, non-edge failure).
func statusFor(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	var pe *store.PersistError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError
	}
	var ug *UnknownGraphError
	if errors.As(err, &ug) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// refusal words a dispatch error as the in-protocol refusal both transports
// relay, classified by statusFor.
func refusal(err error) *wire.Error {
	return &wire.Error{Code: statusFor(err), Msg: err.Error()}
}

// poolForKey resolves (load-through or build-through) the structure k
// addresses, of either failure model, to its oracle pool, validating the
// optional target vertex against its graph. ctx carries the request's
// deadline budget into the store's miss path.
func (s *Server) poolForKey(ctx context.Context, k store.Key, v *int) (*ftbfs.OraclePool, error) {
	g, ok := s.store.Graph(k.Graph)
	if !ok {
		return nil, &UnknownGraphError{Fingerprint: k.Graph}
	}
	if v != nil && (*v < 0 || *v >= g.N()) {
		return nil, fmt.Errorf("vertex %d out of range [0,%d)", *v, g.N())
	}
	// Resolve serves a resident structure on its fast path; misses fall
	// through to load- or build-through.
	st, err := s.store.Resolve(ctx, k)
	if err != nil {
		return nil, err
	}
	return st.OraclePool(), nil
}

// BatchQuery is one entry of a /batch-query vector: the target vertex, the
// simulated failure, and an optional structure address overriding the
// request-level default — one batch may span many structures (the cluster
// router relies on this to ship one sub-batch per shard). The failure is
// either a failed edge (Fail) or, when FailedVertex is set, a failed
// vertex: the slot then addresses the (graph, source) vertex-failure
// structure and Eps/Alg are ignored.
type BatchQuery struct {
	Graph        string   `json:"graph,omitempty"`
	Source       *int     `json:"source,omitempty"`
	Eps          *float64 `json:"eps,omitempty"`
	Alg          string   `json:"alg,omitempty"`
	V            int      `json:"v"`
	Fail         [2]int   `json:"fail"`
	FailedVertex *int     `json:"failedVertex,omitempty"`
}

// BatchQueryRequest is the body of POST /batch-query: a default structure
// address plus a vector of failure queries. Queries addressing the same
// structure are answered with one pooled oracle, grouped by failed edge so
// each tree-edge failure is repaired once for all its targets.
type BatchQueryRequest struct {
	Graph   string       `json:"graph,omitempty"`
	Source  int          `json:"source,omitempty"`
	Eps     *float64     `json:"eps,omitempty"`
	Alg     string       `json:"alg,omitempty"`
	Queries []BatchQuery `json:"queries"`
}

// keyFor resolves the structure key addressed by query i, applying the
// request-level defaults; a slot carrying a failed vertex resolves to the
// vertex-model key. defFP and defErr are parseGraph(req.Graph), parsed once
// per vector by the caller.
func (req *BatchQueryRequest) keyFor(i int, defFP uint64, defErr error) (store.Key, error) {
	q := &req.Queries[i]
	fp, err := defFP, defErr
	if q.Graph != "" {
		fp, err = parseGraph(q.Graph)
	}
	source := req.Source
	if q.Source != nil {
		source = *q.Source
	}
	eps := req.Eps
	if q.Eps != nil {
		eps = q.Eps
	}
	alg := q.Alg
	if alg == "" {
		alg = req.Alg
	}
	return addrKey(fp, err, source, eps, alg, q.FailedVertex != nil)
}

// addrKey resolves a slot's structure address, the request's defaults
// applied, to its registry key: a bad graph fingerprint (fpErr) fails it,
// and a vertex slot addresses the (graph, source) vertex structure whatever
// its ε and algorithm.
func addrKey(fp uint64, fpErr error, source int, eps *float64, alg string, vertex bool) (store.Key, error) {
	if fpErr != nil {
		return store.Key{}, fpErr
	}
	if vertex {
		return store.VertexKey(fp, source), nil
	}
	return resolveKey(fp, source, eps, alg)
}

// BatchQueryResponse is the reply of POST /batch-query. Dists is parallel to
// the request's query vector; a query that failed individually (bad vertex,
// non-edge, unknown structure) has its message in the matching Errors slot
// and Dists holding -1. Errors is omitted entirely when every query
// succeeded, so fully-valid batches keep the compact wire shape.
type BatchQueryResponse struct {
	Dists  []int    `json:"dists"`            // -1 means unreachable (or errored slot)
	Errors []string `json:"errors,omitempty"` // parallel to Dists; "" = ok
}

// queryGroup is one structure's worth of a batch: the resolved key, the
// request slots (indexes into the batch vector) it answers, and its queries
// and answers, all carved from slabs the whole batch shares. Exactly one of
// queries/vqueries is populated, decided by the key's model.
type queryGroup struct {
	key      store.Key
	n        int // slots in the group
	slots    []int
	queries  []ftbfs.FailureQuery
	vqueries []ftbfs.VertexFailureQuery
	dists    []int
	errs     []error
	answered uint64 // queries that succeeded

	// The structure's oracle pool, when answerGroups found it resident.
	pool *ftbfs.OraclePool
}

// fail fails every slot of the group with err.
func (gr *queryGroup) fail(err error, dists []int, errs []string) {
	for _, i := range gr.slots {
		dists[i] = ftbfs.Unreachable
		errs[i] = err.Error()
	}
}

// answerGroups answers each group's slots with one pooled oracle of its
// structure, writing into dists/errs (indexed by the groups' slots) and
// returning the number of individually-successful queries. A group whose
// structure is resident answers inline on the calling goroutine. A cold
// group — a load- or build-through — answers on a goroutine of its own,
// started before the resident groups answer, so one build cannot serialise
// the rest of the batch behind it; cold groups are bounded by the
// server-wide groupSem, so batch bursts cannot amplify into unbounded
// concurrent builds. The trade-off: one huge multi-group batch on an idle
// many-core shard no longer spreads its resident groups over cores.
// Concurrency comes from concurrent requests instead — the router keeps 4
// pooled connections per shard, as it does for points. Both the HTTP
// /batch-query endpoint and the wire-protocol batch handler funnel here,
// which is what makes the two transports answer-identical by construction.
func (s *Server) answerGroups(ctx context.Context, groups []queryGroup, dists []int, errs []string) uint64 {
	var cold *sync.WaitGroup
	for g := range groups {
		gr := &groups[g]
		if st, ok := s.store.Resident(gr.key); ok {
			gr.pool = st.OraclePool()
			continue
		}
		// Waiting for a slot respects the caller's budget: a batch stuck
		// behind other groups' cold builds gives up when its deadline
		// passes, failing the group with the 504-equivalent error instead
		// of occupying the queue.
		select {
		case s.groupSem <- struct{}{}:
		case <-ctx.Done():
			gr.fail(ctx.Err(), dists, errs)
			continue
		}
		if cold == nil {
			cold = new(sync.WaitGroup)
		}
		wg := cold
		wg.Add(1)
		go func() {
			defer func() { <-s.groupSem; wg.Done() }()
			s.answerGroup(ctx, gr, dists, errs)
		}()
	}
	for g := range groups {
		if gr := &groups[g]; gr.pool != nil {
			s.answerGroup(ctx, gr, dists, errs)
		}
	}
	if cold != nil {
		cold.Wait()
	}
	var answered uint64
	for g := range groups {
		answered += groups[g].answered
	}
	return answered
}

// answerGroup answers one group with one pooled oracle of its structure:
// the resident one answerGroups found, else one the store loads or builds.
func (s *Server) answerGroup(ctx context.Context, gr *queryGroup, dists []int, errs []string) {
	pool := gr.pool
	var err error
	if pool == nil {
		pool, err = s.poolForKey(ctx, gr.key, nil)
	}
	if err == nil {
		_ = pool.Do(func(o *ftbfs.Oracle) error {
			if gr.key.Model == core.ModelVertex {
				o.DistAvoidingVertexEach(gr.vqueries, gr.dists, gr.errs)
			} else {
				o.DistAvoidingEach(gr.queries, gr.dists, gr.errs)
			}
			return nil
		})
	}
	if err != nil {
		gr.fail(err, dists, errs)
		return
	}
	for j, i := range gr.slots {
		dists[i] = gr.dists[j]
		if gr.errs[j] != nil {
			errs[i] = gr.errs[j].Error()
		} else {
			gr.answered++
		}
	}
}

// StatsResponse is the reply of GET /stats. Store carries the registry
// counters (hits, misses, loads, builds, evictions, saves) alongside the
// request-level totals.
type StatsResponse struct {
	Role          string      `json:"role,omitempty"`
	ID            string      `json:"id,omitempty"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Requests      uint64      `json:"requests"`
	WireRequests  uint64      `json:"wire_requests"`
	Queries       uint64      `json:"queries"`
	Errors        uint64      `json:"errors"`
	Shed          uint64      `json:"shed"` // requests refused by the load shedder
	Draining      bool        `json:"draining,omitempty"`
	Store         store.Stats `json:"store"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.edge.Error(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ident := s.identitySnapshot()
	WriteJSON(w, http.StatusOK, StatsResponse{
		Role:          ident.role,
		ID:            ident.id,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.m.requests.Value(),
		WireRequests:  s.m.wireRequests.Value(),
		Queries:       s.m.queries.Value(),
		Errors:        s.m.errs.Value(),
		Shed:          s.m.shed.Value(),
		Draining:      s.draining.Load(),
		Store:         s.store.Stats(),
	})
}

// HealthResponse is the reply of GET /healthz: pure liveness plus identity.
// It never consults the store — a wedged build must not make probes flap.
type HealthResponse struct {
	OK            bool    `json:"ok"`
	Role          string  `json:"role,omitempty"`
	ID            string  `json:"id,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Wire is the advertised binary-protocol address, when serving one;
	// the cluster router's probes learn where to send queries from it.
	Wire string `json:"wire,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ident := s.identitySnapshot()
	WriteJSON(w, http.StatusOK, HealthResponse{
		OK:            true,
		Role:          ident.role,
		ID:            ident.id,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Wire:          s.WireAddr(),
	})
}

// ReadyResponse is the reply of GET /readyz.
type ReadyResponse struct {
	Ready      bool `json:"ready"`
	Draining   bool `json:"draining,omitempty"`
	Graphs     int  `json:"graphs"`
	Structures int  `json:"structures"`
	// Wire mirrors HealthResponse.Wire: the binary-protocol address, if any.
	Wire string `json:"wire,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	resp := ReadyResponse{
		Ready:      !s.draining.Load(),
		Draining:   s.draining.Load(),
		Graphs:     st.Graphs,
		Structures: st.Structures,
		Wire:       s.WireAddr(),
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, resp)
}

// drainable lets Serve flip a handler's readiness gate before draining;
// *Server implements it, and so does the cluster router.
type drainable interface{ SetDraining(bool) }

// Serve runs handler on addr until ctx is cancelled, then drains in-flight
// requests (graceful shutdown, 5 s deadline). ready, when non-nil, is called
// once with the bound address — useful with addr ":0". Handlers implementing
// SetDraining(bool) are marked draining first, so their /readyz flips to 503
// before the listener stops accepting; use ServeDraining to hold that 503
// window open long enough for load-balancer probes to observe it.
func Serve(ctx context.Context, addr string, handler http.Handler, ready func(addr string)) error {
	return ServeDraining(ctx, addr, handler, 0, ready)
}

// ServeDraining is Serve with an explicit drain grace: after shutdown is
// requested the handler is marked draining (its /readyz answers 503) and
// the listener keeps accepting for drainGrace before closing, giving load
// balancers and the cluster router's health probes a real window to stop
// routing new work here instead of discovering a closed port. A zero grace
// shuts down immediately (the right default for tests and one-node use).
func ServeDraining(ctx context.Context, addr string, handler http.Handler, drainGrace time.Duration, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler: handler,
		// Slowloris guard: a client trickling header bytes must not pin a
		// goroutine forever. Bodies are bounded by MaxBytesReader instead
		// of a ReadTimeout so legitimate large /build uploads still work.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr().String())
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		if d, ok := handler.(drainable); ok {
			d.SetDraining(true)
		}
		if drainGrace > 0 {
			select {
			case err := <-errc: // listener died on its own mid-grace
				return err
			case <-time.After(drainGrace):
			}
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		<-errc // srv.Serve has returned http.ErrServerClosed
		return nil
	}
}
