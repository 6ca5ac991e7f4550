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
//	GET  /handoff/record raw record bytes of one structure
//	GET  /handoff/graph  canonical text of one registered graph
//	POST /handoff/pull   pull structures from a peer shard (rebalance; handoff.go)
//	GET  /stats          store and server counters
//	GET  /healthz        liveness: identity + uptime, always 200 while up
//	GET  /readyz         readiness: 503 while draining, else store summary
//
// /dist-avoiding-vertex serves the vertex failure model: it addresses a
// vertex-failure structure (keyed by graph + source only — the vertex
// construction has no ε or algorithm dimension), built through the store on
// first use, and answers through pooled VertexOracles exactly like the edge
// path: an off-tree-path failed vertex is an O(1) read of the intact
// vector, a failed tree vertex repairs only its subtree.
//
// A /batch-query vector may span several structures (each query can carry
// its own graph/source/eps/alg, defaulting to the request-level address) and
// never fails as a whole on one bad query: the response carries a parallel
// error slot per query, which is what a scatter-gather router needs to merge
// partial results. A slot carrying "failedVertex" instead of "fail" is a
// vertex-failure query; both models may mix freely in one vector.
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
// well under this). The cluster router applies the same bound so the two
// tiers never disagree about what is acceptable.
const MaxBodyBytes = 64 << 20

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
	wait     *telemetry.Histogram // queue-wait times; nil-safe to skip
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
	if l.wait != nil {
		l.wait.Observe(time.Since(start))
	}
	return ok
}

func (l *limiter) release() { <-l.slots }

// identity names a node for /healthz and /stats; held behind an atomic
// pointer because `serve` only learns its default ID (the bound address)
// after the listener is up, when probes may already be hitting /healthz.
type identity struct {
	role string // "" for standalone, "shard" under a cluster router
	id   string
}

// Server is the HTTP handler of the query service.
type Server struct {
	store *store.Store
	mux   *http.ServeMux
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

	// m backs every request counter and latency histogram; traces keeps the
	// most recent traced requests for /debug/traces.
	m      *serverMetrics
	traces *telemetry.TraceRing

	draining atomic.Bool // graceful shutdown in progress (readyz gates on it)
}

// New returns a service over the given registry.
func New(st *store.Store) *Server {
	s := &Server{
		store:    st,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		groupSem: make(chan struct{}, 8),
		traces:   telemetry.NewTraceRing(256, 0),
	}
	routes := []struct {
		path    string
		handler http.HandlerFunc
	}{
		{"/build", s.handleBuild},
		{"/mutate", s.handleMutate},
		{"/dist", s.handlePoint},
		{"/dist-avoiding", s.handlePoint},
		{"/dist-avoiding-vertex", s.handlePoint},
		{"/batch-query", s.handleBatchQuery},
		{"/handoff/keys", s.handleHandoffKeys},
		{"/handoff/record", s.handleHandoffRecord},
		{"/handoff/graph", s.handleHandoffGraph},
		{"/handoff/pull", s.handleHandoffPull},
		{"/stats", s.handleStats},
		{"/healthz", s.handleHealthz},
		{"/readyz", s.handleReadyz},
		{"/metrics", s.handleMetrics},
		{"/metrics.json", s.handleMetricsJSON},
		{"/debug/traces", func(w http.ResponseWriter, r *http.Request) { s.traces.ServeHTTP(w, r) }},
	}
	paths := make([]string, len(routes))
	for i, rt := range routes {
		s.mux.HandleFunc(rt.path, rt.handler)
		paths[i] = rt.path
	}
	s.m = newServerMetrics(paths)
	s.work.Store(newLimiter(DefaultMaxInflight, DefaultMaxQueued, s.m.queueWait))
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

// shedPaths are the endpoints subject to load shedding: the ones doing
// query/build work. Health and readiness probes must answer on an overloaded
// node (shedding them would flap the cluster's routing), stats feed
// dashboards, and the handoff surface stays up so a draining or struggling
// node can still move its structures away.
func shedsLoad(path string) bool {
	switch path {
	case "/build", "/mutate", "/dist", "/dist-avoiding", "/dist-avoiding-vertex", "/batch-query":
		return true
	}
	return false
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

// ServeHTTP implements http.Handler. Two pieces of the robustness story run
// here, before any handler: the request's deadline budget (BudgetHeader)
// becomes a context deadline, and work-bearing endpoints pass through the
// load shedder — a saturated node answers 503 + Retry-After immediately
// instead of queueing without bound and missing every deadline at once.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	start := time.Now()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	}
	if h := r.Header.Get(BudgetHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
			defer cancel()
			r = r.WithContext(ctx)
		}
	}
	// A trace header makes the request traced: its spans travel back in the
	// response's span header and the trace is retained at /debug/traces.
	var tr *telemetry.Trace
	if id, ok := telemetry.ParseTraceID(r.Header.Get(telemetry.TraceHeader)); ok {
		tr = telemetry.NewTrace(id)
		r = r.WithContext(telemetry.WithTrace(r.Context(), tr))
	}
	sw := statusWriter{ResponseWriter: w}
	if shedsLoad(r.URL.Path) {
		work := s.work.Load()
		if !work.acquire(r.Context(), s.draining.Load()) {
			if r.Context().Err() != nil {
				// The budget ran out while queued: the caller is gone, answer
				// 504 so retries count it against the right failure mode.
				s.writeErr(&sw, http.StatusGatewayTimeout, fmt.Errorf("deadline budget exhausted while queued"))
			} else {
				s.m.shed.Inc()
				sw.Header().Set("Retry-After", s.m.retryAfterSecs())
				s.writeErr(&sw, http.StatusServiceUnavailable, fmt.Errorf("server overloaded; retry later"))
			}
			s.observeHTTP(r.URL.Path, start, sw.status)
			return
		}
		defer work.release()
	}
	if tr == nil {
		s.mux.ServeHTTP(&sw, r)
		s.observeHTTP(r.URL.Path, start, sw.status)
		return
	}
	// Traced path: buffer the response so the span header (complete only
	// after the handler returns) still precedes the body.
	bw := &bufferedWriter{statusWriter: statusWriter{ResponseWriter: w}}
	s.mux.ServeHTTP(bw, r)
	tr.Add("shard.handle", start)
	bw.Header().Set(telemetry.SpanHeader, tr.SpansJSON())
	bw.flush()
	s.traces.Record(tr, r.URL.Path, time.Since(start))
	s.observeHTTP(r.URL.Path, start, bw.status)
}

// observeHTTP records one finished HTTP request into its route's
// outcome-labeled histogram; unregistered paths (404s) are not a route and
// record nothing.
func (s *Server) observeHTTP(path string, start time.Time, status int) {
	if h := s.m.httpByRoute[path]; h != nil {
		if status == 0 {
			status = http.StatusOK
		}
		h.Observe(time.Since(start), telemetry.OutcomeOf(status))
	}
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
	s.writeJSON(w, http.StatusOK, snap)
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, code int, err error) {
	s.m.errs.Inc()
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeWireErr relays a dispatch refusal over HTTP; the dispatch has already
// counted it.
func (s *Server) writeWireErr(w http.ResponseWriter, werr *wire.Error) {
	s.writeJSON(w, werr.Code, map[string]string{"error": werr.Msg})
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
// carries (text form or inline n+edges). The cluster router shares this with
// handleBuild so both reject oversized or malformed graphs identically.
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

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req BuildRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	g, err := GraphFromBuildRequest(&req)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	alg, err := core.ParseAlgorithm(req.Alg)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	pairs := req.ResolvedPairs()
	fp, err := s.store.AddGraph(g)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	reqs := make([]store.Req, len(pairs))
	for i, p := range pairs {
		reqs[i] = store.Req{Source: p.Source, Eps: p.Eps, Alg: alg}
	}
	sts, err := s.store.GetOrBuildMany(r.Context(), fp, reqs)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	resp := BuildResponse{Fingerprint: fmt.Sprintf("%016x", fp), N: g.N(), M: g.M()}
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
		vst, err := s.store.GetOrBuildVertex(r.Context(), fp, src)
		if err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		resp.VertexStructures = append(resp.VertexStructures, VertexStructureInfo{
			Source: src,
			Size:   vst.Size(),
			Pairs:  vst.Pairs(),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
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

// handleMutate applies one edge-mutation batch to a registered graph. The
// store does the heavy lifting — rebuilding resident structures against the
// new generation while the old one keeps serving, then swapping atomically —
// so this handler is thin: convert to wire form, run the dispatch WireMutate
// uses.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req MutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	lineage, muts, err := req.Wire()
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, werr := s.mutate(r.Context(), lineage, muts)
	if werr != nil {
		s.writeWireErr(w, werr)
		return
	}
	s.writeJSON(w, http.StatusOK, MutateResponseFrom(res))
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

// resolveKey turns a structure address into the registry key the router and
// the shard server agree on — routing hashes exactly what the store keys.
func resolveKey(graphHex string, source int, eps *float64, algName string) (store.Key, error) {
	fp, err := strconv.ParseUint(graphHex, 16, 64)
	if err != nil {
		return store.Key{}, fmt.Errorf("bad graph fingerprint %q", graphHex)
	}
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		return store.Key{}, err
	}
	e := DefaultEps
	if eps != nil {
		e = *eps
	}
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return store.Key{}, fmt.Errorf("eps must be finite, got %v", e)
	}
	if e == 0 {
		// JSON "-0" parses to negative zero; fold it into +0 so the key —
		// and the cluster ring position derived from its bits — is unique.
		e = 0
	}
	return store.Key{Graph: fp, Source: source, Eps: e, Alg: alg}, nil
}

// resolveVertexModelKey turns a vertex-failure address into its canonical
// registry key: graph + source only, ε and algorithm pinned at their zero
// values by store.VertexKey so every addressing of one vertex structure
// maps to one key — and one cluster ring position.
func resolveVertexModelKey(graphHex string, source int) (store.Key, error) {
	fp, err := strconv.ParseUint(graphHex, 16, 64)
	if err != nil {
		return store.Key{}, fmt.Errorf("bad graph fingerprint %q", graphHex)
	}
	return store.VertexKey(fp, source), nil
}

// EdgeKey resolves the edge-model structure key the request addresses —
// what /dist and /dist-avoiding serve. A stray failedVertex/fw field does
// not change the model: the endpoint, not the parameter, picks the failure
// model (Wire).
func (q *QueryRequest) EdgeKey() (store.Key, error) {
	return resolveKey(q.Graph, q.Source, q.Eps, q.Alg)
}

// VertexKey resolves the vertex-model structure key the request addresses —
// what /dist-avoiding-vertex serves (graph + source only; ε and algorithm
// do not exist in the vertex model and are ignored).
func (q *QueryRequest) VertexKey() (store.Key, error) {
	return resolveVertexModelKey(q.Graph, q.Source)
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

// structureForKey resolves (load-through or build-through) a structure by
// registry key, validating the optional target vertex against its graph.
// ctx carries the request's deadline budget into the store's miss path.
func (s *Server) structureForKey(ctx context.Context, k store.Key, v *int) (*ftbfs.Structure, error) {
	g, ok := s.store.Graph(k.Graph)
	if !ok {
		return nil, &UnknownGraphError{Fingerprint: k.Graph}
	}
	if v != nil && (*v < 0 || *v >= g.N()) {
		return nil, fmt.Errorf("vertex %d out of range [0,%d)", *v, g.N())
	}
	// GetOrBuild serves a resident structure on its fast path; misses fall
	// through to load- or build-through.
	return s.store.GetOrBuild(ctx, k)
}

type distResponse struct {
	Dist int `json:"dist"` // -1 means unreachable
}

// handlePoint serves /dist, /dist-avoiding and /dist-avoiding-vertex: the
// request converts to wire form and answers through the dispatch WirePoint
// uses.
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	q, err := ParseQuery(r)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	_, typ, pq, err := q.Wire(r.URL.Path)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	d, werr := s.point(r.Context(), typ, &pq)
	if werr != nil {
		s.writeWireErr(w, werr)
		return
	}
	s.writeJSON(w, http.StatusOK, distResponse{Dist: int(d)})
}

// vertexStructureForKey resolves (load-through or build-through) a
// vertex-failure structure by registry key, validating the optional target
// vertex against its graph.
func (s *Server) vertexStructureForKey(ctx context.Context, k store.Key, v *int) (*ftbfs.VertexStructure, error) {
	g, ok := s.store.Graph(k.Graph)
	if !ok {
		return nil, &UnknownGraphError{Fingerprint: k.Graph}
	}
	if v != nil && (*v < 0 || *v >= g.N()) {
		return nil, fmt.Errorf("vertex %d out of range [0,%d)", *v, g.N())
	}
	return s.store.GetOrBuildVertex(ctx, k.Graph, k.Source)
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

// KeyFor resolves the structure key addressed by query i, applying the
// request-level defaults; a slot carrying a failed vertex resolves to the
// vertex-model key. The cluster router routes on exactly this key.
func (req *BatchQueryRequest) KeyFor(i int) (store.Key, error) {
	q := &req.Queries[i]
	graph := q.Graph
	if graph == "" {
		graph = req.Graph
	}
	source := req.Source
	if q.Source != nil {
		source = *q.Source
	}
	if q.FailedVertex != nil {
		return resolveVertexModelKey(graph, source)
	}
	eps := req.Eps
	if q.Eps != nil {
		eps = q.Eps
	}
	alg := q.Alg
	if alg == "" {
		alg = req.Alg
	}
	return resolveKey(graph, source, eps, alg)
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

// queryGroup is one structure's worth of a batch: the resolved key plus the
// request slots (indexes into the batch vector) it answers. Exactly one of
// queries/vqueries is populated, decided by the key's model.
type queryGroup struct {
	key      store.Key
	slots    []int
	queries  []ftbfs.FailureQuery
	vqueries []ftbfs.VertexFailureQuery
}

// answerGroups resolves each group's structure and answers its slots with one
// pooled oracle, writing into dists/errs (indexed by the groups' slots) and
// returning the number of individually-successful queries. Groups are
// independent (disjoint slots, one pooled oracle each), so multi-structure
// batches answer them concurrently — one cold structure's build-through must
// not serialise every other group of the batch behind it. The dominant
// single-structure batch skips the goroutine machinery and runs inline on the
// calling goroutine (this is the gated BenchmarkServeQueries/batch-query16
// path); concurrency is bounded by the server-wide groupSem so batch bursts
// cannot amplify into unbounded concurrent builds. Both the HTTP /batch-query
// handler and the wire-protocol batch handler funnel here, which is what
// makes the two transports answer-identical by construction.
func (s *Server) answerGroups(ctx context.Context, groups []*queryGroup, dists []int, errs []string) uint64 {
	var answered atomic.Uint64
	answerGroup := func(gr *queryGroup) {
		failSlots := func(err error) {
			for _, i := range gr.slots {
				dists[i] = ftbfs.Unreachable
				errs[i] = err.Error()
			}
		}
		subDists := make([]int, len(gr.slots))
		subErrs := make([]error, len(gr.slots))
		if gr.key.Model == store.ModelVertex {
			st, err := s.vertexStructureForKey(ctx, gr.key, nil)
			if err != nil {
				failSlots(err)
				return
			}
			_ = st.OraclePool().Do(func(o *ftbfs.VertexOracle) error {
				o.DistAvoidingVertexEach(gr.vqueries, subDists, subErrs)
				return nil
			})
		} else {
			st, err := s.structureForKey(ctx, gr.key, nil)
			if err != nil {
				failSlots(err)
				return
			}
			_ = st.OraclePool().Do(func(o *ftbfs.Oracle) error {
				o.DistAvoidingEach(gr.queries, subDists, subErrs)
				return nil
			})
		}
		for j, i := range gr.slots {
			dists[i] = subDists[j]
			if subErrs[j] != nil {
				errs[i] = subErrs[j].Error()
			} else {
				answered.Add(1)
			}
		}
	}
	// acquireSem respects the caller's budget: a batch stuck behind other
	// groups' cold builds gives up when its deadline passes, failing its own
	// slots with the 504-equivalent error instead of occupying the queue.
	acquireSem := func(gr *queryGroup) bool {
		select {
		case s.groupSem <- struct{}{}:
			return true
		case <-ctx.Done():
			for _, i := range gr.slots {
				dists[i] = ftbfs.Unreachable
				errs[i] = ctx.Err().Error()
			}
			return false
		}
	}
	switch len(groups) {
	case 0:
	case 1:
		// Inline on the calling goroutine, but still under the server-wide
		// cap: a burst of single-structure batches on distinct cold keys
		// is bounded exactly like a multi-group fan-out.
		if !acquireSem(groups[0]) {
			break
		}
		answerGroup(groups[0])
		<-s.groupSem
	default:
		var wg sync.WaitGroup
		for _, gr := range groups {
			gr := gr
			if !acquireSem(gr) {
				continue
			}
			wg.Add(1)
			go func() {
				defer func() { <-s.groupSem; wg.Done() }()
				answerGroup(gr)
			}()
		}
		wg.Wait()
	}
	return answered.Load()
}

func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req BatchQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("empty query vector"))
		return
	}
	slots := make([]wire.BatchSlot, len(req.Queries))
	dists := make([]int, len(req.Queries))
	errs := make([]string, len(req.Queries))
	for i := range req.Queries {
		var err error
		if _, slots[i], err = req.WireSlot(i); err != nil {
			dists[i] = ftbfs.Unreachable
			errs[i] = err.Error()
		}
	}
	s.batch(r.Context(), slots, dists, errs)
	resp := BatchQueryResponse{Dists: dists}
	for _, e := range errs {
		if e != "" {
			resp.Errors = errs
			break
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
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
		s.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	ident := s.identitySnapshot()
	s.writeJSON(w, http.StatusOK, StatsResponse{
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
	s.writeJSON(w, http.StatusOK, HealthResponse{
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
	s.writeJSON(w, code, resp)
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
